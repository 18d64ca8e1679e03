/**
 * @file
 * Benchmark-side tracing: spans recorded around calls into the
 * library's layers, kept in memory and written out when the run ends.
 *
 * Every span belongs to one request (its `request` id, shared by all
 * spans of that request) and names its parent, so a layer's self time
 * is its duration minus the part its child spans cover. A span marked
 * `shadow` re-runs work that another span of the same request already
 * did whole (the stage-by-stage replay of a tryCompileLoop call); it
 * splits time across layers but is left out of the traced request time
 * that trace.overhead compares with the untraced run.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

inline int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    const char *name = "";
    int64_t request = 0;
    int parent = -1;        ///< index into Tracer::spans, -1 for a root
    int64_t startNs = 0;
    int64_t endNs = 0;
    bool shadow = false;
};

class Tracer
{
  public:
    /** Spans opened from now on belong to `request`. */
    void setRequest(int64_t request) { current = request; }

    int
    open(const char *name, bool shadow)
    {
        Span s;
        s.name = name;
        s.request = current;
        s.parent = stack.empty() ? -1 : stack.back();
        s.shadow = shadow || (s.parent >= 0 && spans[s.parent].shadow);
        s.startNs = nowNs();
        spans.push_back(s);
        stack.push_back(static_cast<int>(spans.size()) - 1);
        return stack.back();
    }

    void
    close(int index)
    {
        spans[index].endNs = nowNs();
        stack.pop_back();
    }

    /** Add to a named count recorded at a layer boundary. */
    void count(const std::string &key, double delta) { counts[key] += delta; }

    double
    countOf(const std::string &key) const
    {
        auto it = counts.find(key);
        return it == counts.end() ? 0.0 : it->second;
    }

    /** Each span's self time (ns), by index into `spans`. */
    std::vector<int64_t> selfNs() const;

    /** Write every span as one JSON object per line. */
    bool writeJsonLines(const std::string &path) const;

    std::vector<Span> spans;

  private:
    std::vector<int> stack;
    int64_t current = 0;
    std::map<std::string, double> counts;
};

/** RAII span; a null tracer records nothing (the untraced path). */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, bool shadow = false)
        : tracer(tracer), index(tracer ? tracer->open(name, shadow) : -1)
    {}
    ~Scope()
    {
        if (tracer != nullptr)
            tracer->close(index);
    }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer *tracer;
    int index;
};

inline std::vector<int64_t>
Tracer::selfNs() const
{
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i)
        self[i] = spans[i].endNs - spans[i].startNs;
    for (const Span &s : spans) {
        if (s.parent >= 0)
            self[s.parent] -= s.endNs - s.startNs;
    }
    return self;
}

inline bool
Tracer::writeJsonLines(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"request\":%lld,\"parent\":%d,"
                     "\"name\":\"%s\",\"start_ns\":%lld,\"dur_ns\":%lld,"
                     "\"shadow\":%s}\n",
                     i, static_cast<long long>(s.request), s.parent,
                     s.name, static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs - s.startNs),
                     s.shadow ? "true" : "false");
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
