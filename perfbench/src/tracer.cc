#include "tracer.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <unordered_map>

namespace mlcbench {

namespace {

thread_local std::uint32_t tl_current = 0;

const char *
phaseName(Phase p)
{
    return p == Phase::Main ? "main" : "companion";
}

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

Tracer &
Tracer::instance()
{
    static Tracer t;
    return t;
}

void
Tracer::record(const SpanRecord &r)
{
    std::lock_guard<std::mutex> lk(mu_);
    spans_.push_back(r);
}

void
Tracer::count(const std::string &name, double v)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lk(mu_);
    counters_[{phase_, name}] += v;
}

void
Tracer::computeSelf() const
{
    if (selfValidFor_ == spans_.size() && self_.size() == spans_.size())
        return;
    std::unordered_map<std::uint32_t, std::size_t> index;
    index.reserve(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        index[spans_[i].id] = i;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        kids(spans_.size());
    for (const SpanRecord &s : spans_) {
        const auto it = index.find(s.parent);
        if (s.parent != 0 && it != index.end())
            kids[it->second].push_back({s.startNs, s.endNs});
    }
    self_.assign(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        // Union of the children's intervals, clipped to the span:
        // parallel children overlap, and the covered wall time is
        // what the parent did not spend itself.
        std::int64_t covered = 0, cur_lo = 0, cur_hi = -1;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, s.startNs);
            hi = std::min(hi, s.endNs);
            if (hi <= lo)
                continue;
            if (lo > cur_hi) {
                if (cur_hi > cur_lo)
                    covered += cur_hi - cur_lo;
                cur_lo = lo;
                cur_hi = hi;
            } else {
                cur_hi = std::max(cur_hi, hi);
            }
        }
        if (cur_hi > cur_lo)
            covered += cur_hi - cur_lo;
        self_[i] = static_cast<double>(s.endNs - s.startNs - covered);
    }
    selfValidFor_ = spans_.size();
}

double
Tracer::selfNs(const std::string &name, Phase p, std::size_t *n) const
{
    std::lock_guard<std::mutex> lk(mu_);
    computeSelf();
    double sum = 0.0;
    std::size_t k = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].phase == p && name == spans_[i].name) {
            sum += self_[i];
            ++k;
        }
    if (n)
        *n = k;
    return sum;
}

double
Tracer::totalNs(const std::string &name, Phase p, std::size_t *n) const
{
    std::lock_guard<std::mutex> lk(mu_);
    double sum = 0.0;
    std::size_t k = 0;
    for (const SpanRecord &s : spans_)
        if (s.phase == p && name == s.name) {
            sum += static_cast<double>(s.endNs - s.startNs);
            ++k;
        }
    if (n)
        *n = k;
    return sum;
}

double
Tracer::counter(const std::string &name, Phase p) const
{
    std::lock_guard<std::mutex> lk(mu_);
    const auto it = counters_.find({p, name});
    return it == counters_.end() ? 0.0 : it->second;
}

bool
Tracer::hasCounter(const std::string &name, Phase p) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return counters_.count({p, name}) != 0;
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return spans_.size();
}

bool
Tracer::writeOut(const std::string &path) const
{
    std::lock_guard<std::mutex> lk(mu_);
    computeSelf();
    std::ofstream out(path);
    if (!out)
        return false;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRecord &s = spans_[i];
        out << "{\"span\":\"" << s.name << "\",\"id\":" << s.id
            << ",\"parent\":" << s.parent
            << ",\"start_ns\":" << s.startNs
            << ",\"end_ns\":" << s.endNs
            << ",\"self_ns\":" << static_cast<std::int64_t>(self_[i])
            << ",\"phase\":\"" << phaseName(s.phase) << "\"}\n";
    }
    for (const auto &[key, v] : counters_)
        out << "{\"counter\":\"" << key.second << "\",\"value\":" << v
            << ",\"phase\":\"" << phaseName(key.first) << "\"}\n";
    return static_cast<bool>(out);
}

Span::Span(const char *name, std::uint32_t parent)
{
    Tracer &t = Tracer::instance();
    if (!t.enabled())
        return;
    on_ = true;
    rec_.name = name;
    rec_.id = t.nextId();
    rec_.parent = parent == kInherit ? tl_current : parent;
    rec_.phase = t.phase();
    saved_ = tl_current;
    tl_current = rec_.id;
    rec_.startNs = nowNs();
}

Span::~Span()
{
    if (!on_)
        return;
    rec_.endNs = nowNs();
    tl_current = saved_;
    Tracer::instance().record(rec_);
}

std::uint32_t
Span::current()
{
    return tl_current;
}

} // namespace mlcbench
