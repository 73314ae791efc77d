/**
 * @file
 * In-memory span tracer for the benchmark's traced run.
 *
 * A span is (name, start, end, parent). The benchmark opens spans
 * around its own calls into each mlcsim module; nothing inside the
 * libraries is instrumented. Spans and counters stay in memory while
 * the run measures and are written out once at exit. With tracing
 * off (the end-to-end runs) a Span costs one relaxed load.
 *
 * A layer's self time is its spans' durations minus the part of each
 * interval covered by that span's children (selfNs()). Spans opened
 * on pool worker threads name their parent explicitly, since the
 * thread-local "current span" does not cross threads.
 */

#ifndef MLCBENCH_TRACER_HH
#define MLCBENCH_TRACER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace mlcbench {

/** Which part of a traced run a span belongs to: the workload the
 *  run was asked for, or a companion pass over another workload
 *  that covers layers the main one never calls. */
enum class Phase : std::uint8_t
{
    Main = 0,
    Companion = 1,
};

struct SpanRecord
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; //!< 0 = root
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    Phase phase = Phase::Main;
};

class Tracer
{
  public:
    static Tracer &instance();

    bool enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }
    void setEnabled(bool on) { enabled_.store(on); }

    Phase phase() const { return phase_; }
    void setPhase(Phase p) { phase_ = p; }

    std::uint32_t nextId() { return nextId_.fetch_add(1) + 1; }
    void record(const SpanRecord &r);

    /** Add @p v to counter @p name in the current phase. */
    void count(const std::string &name, double v);

    /** Sum of self time (ns) over spans named @p name in phase
     *  @p p, and how many there were. */
    double selfNs(const std::string &name, Phase p,
                  std::size_t *n = nullptr) const;
    /** Sum of full durations (ns), same selection. */
    double totalNs(const std::string &name, Phase p,
                   std::size_t *n = nullptr) const;
    double counter(const std::string &name, Phase p) const;
    bool hasCounter(const std::string &name, Phase p) const;

    /** Write every span and counter as JSON lines to @p path. */
    bool writeOut(const std::string &path) const;

    std::size_t spanCount() const;

  private:
    Tracer() = default;
    void computeSelf() const;

    std::atomic<bool> enabled_{false};
    std::atomic<std::uint32_t> nextId_{0};
    Phase phase_ = Phase::Main;

    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
    std::map<std::pair<Phase, std::string>, double> counters_;
    /** Self time per span, parallel to spans_ (lazily rebuilt). */
    mutable std::vector<double> self_;
    mutable std::size_t selfValidFor_ = 0;
};

std::int64_t nowNs();

/** RAII span. @p parent = kInherit takes this thread's current
 *  span as the parent. */
class Span
{
  public:
    static constexpr std::uint32_t kInherit = ~std::uint32_t{0};

    explicit Span(const char *name, std::uint32_t parent = kInherit);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** This span's id (0 when tracing is off), for children opened
     *  on other threads. */
    std::uint32_t id() const { return rec_.id; }

    /** The calling thread's innermost open span (0 = none). */
    static std::uint32_t current();

  private:
    SpanRecord rec_;
    std::uint32_t saved_ = 0;
    bool on_ = false;
};

} // namespace mlcbench

#endif // MLCBENCH_TRACER_HH
