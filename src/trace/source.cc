#include "trace/source.hh"

#include <algorithm>
#include <fstream>

#include "trace/binary.hh"
#include "trace/compressed.hh"
#include "trace/dinero.hh"
#include "util/logging.hh"
#include "util/str.hh"

namespace mlc {
namespace trace {

std::uint64_t
drain(TraceSource &source, TraceSink &sink)
{
    std::uint64_t n = 0;
    MemRef ref;
    while (source.next(ref)) {
        sink.put(ref);
        ++n;
    }
    return n;
}

std::vector<MemRef>
collect(TraceSource &source, std::uint64_t limit)
{
    std::vector<MemRef> out;
    // The limit is a cap, not a size hint — callers pass
    // uint64_max to mean "everything", which must not be reserved.
    out.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(limit, 1u << 20)));
    MemRef ref;
    while (out.size() < limit && source.next(ref))
        out.push_back(ref);
    return out;
}

bool
isDineroPath(std::string_view path)
{
    return endsWith(path, ".din") || endsWith(path, ".din.txt");
}

std::unique_ptr<TraceSource>
openFile(const std::string &path, std::ifstream &file)
{
    const bool dinero = isDineroPath(path);
    file.open(path, dinero ? std::ios::in
                           : std::ios::in | std::ios::binary);
    if (!file)
        mlc_fatal("cannot open trace file ", path);
    if (dinero)
        return std::make_unique<DineroReader>(file);
    if (endsWith(path, ".mlcz"))
        return std::make_unique<CompressedReader>(file);
    return std::make_unique<BinaryReader>(file);
}

} // namespace trace
} // namespace mlc
