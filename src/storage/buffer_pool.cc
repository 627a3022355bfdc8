#include "storage/buffer_pool.h"

#include "core/fault.h"
#include "core/logging.h"
#include "core/stats.h"
#include "core/trace.h"

namespace dbsens {

namespace {

/** Awaitable that parks a session on an in-flight load. */
class LoadWait
{
  public:
    explicit LoadWait(std::vector<std::coroutine_handle<>> &waiters)
        : waiters(waiters)
    {
    }

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { waiters.push_back(h); }
    void await_resume() const noexcept {}

  private:
    std::vector<std::coroutine_handle<>> &waiters;
};

} // namespace

BufferPool::BufferPool(EventLoop &loop, SsdModel &ssd,
                       uint64_t capacity_bytes)
    : loop_(loop), ssd_(ssd), capacity_(capacity_bytes)
{
}

void
BufferPool::registerObject(PageId id, uint64_t bytes)
{
    auto [it, inserted] = objects_.try_emplace(id);
    if (!inserted)
        panic("buffer object registered twice");
    it->second.bytes = bytes;
    it->second.checksum = pageChecksum(id, bytes, 0);
    registrationOrder_.push_back(id);
}

uint64_t
BufferPool::pageChecksum(PageId id, uint64_t bytes, uint64_t version)
{
    // SplitMix64-style mix over the page identity and version: cheap,
    // deterministic, and sensitive to every input bit.
    uint64_t z = (uint64_t(id) * 0x9e3779b97f4a7c15ULL) ^
                 (bytes * 0xbf58476d1ce4e5b9ULL) ^
                 (version + 0x94d049bb133111ebULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
BufferPool::objectChecksum(PageId id) const
{
    auto it = objects_.find(id);
    return it == objects_.end() ? 0 : it->second.checksum;
}

uint64_t
BufferPool::objectVersion(PageId id) const
{
    auto it = objects_.find(id);
    return it == objects_.end() ? 0 : it->second.version;
}

bool
BufferPool::verifyObject(PageId id) const
{
    auto it = objects_.find(id);
    if (it == objects_.end())
        return false;
    const Object &o = it->second;
    return o.checksum == pageChecksum(id, o.bytes, o.version);
}

BufferPool::Object &
BufferPool::obj(PageId id)
{
    auto it = objects_.find(id);
    if (it == objects_.end())
        panic("access to unregistered buffer object " + std::to_string(id));
    return it->second;
}

bool
BufferPool::isResident(PageId id) const
{
    auto it = objects_.find(id);
    return it != objects_.end() && it->second.resident;
}

void
BufferPool::touchLru(PageId id, Object &o)
{
    lru_.erase(o.lruPos);
    o.lruPos = lru_.insert(lru_.end(), id);
}

uint64_t
BufferPool::makeRoom(uint64_t needed)
{
    uint64_t writeback = 0;
    while (used_ + needed > capacity_ && !lru_.empty()) {
        const PageId victim = lru_.front();
        Object &vo = objects_.at(victim);
        if (vo.loading) {
            // In-flight loads sit at the LRU head only transiently;
            // rotate past them.
            lru_.pop_front();
            vo.lruPos = lru_.insert(lru_.end(), victim);
            continue;
        }
        lru_.pop_front();
        vo.resident = false;
        used_ -= vo.bytes;
        if (vo.dirty) {
            vo.dirty = false;
            dirtyBytes_ -= vo.bytes;
            writeback += vo.bytes;
        }
    }
    writebackBytes_ += writeback;
    return writeback;
}

void
BufferPool::admit(PageId id, Object &o)
{
    o.resident = true;
    used_ += o.bytes;
    o.lruPos = lru_.insert(lru_.end(), id);
}

Task<void>
BufferPool::fix(PageId id, WaitStats *stats)
{
    Object &o = obj(id);
    if (o.resident && !o.loading) {
        ++hits_;
        touchLru(id, o);
        co_return;
    }
    if (o.loading) {
        // Another session is reading this object: join its waiters
        // and charge PAGEIOLATCH for the remaining load time.
        const SimTime start = loop_.now();
        co_await LoadWait(o.loadWaiters);
        if (stats)
            stats->add(WaitClass::PageIoLatch, loop_.now() - start);
        if (auto *tr = TraceRecorder::active())
            tr->complete(TraceRecorder::kEngineTrack, "wait",
                         waitClassName(WaitClass::PageIoLatch), start,
                         loop_.now(), "page", double(id));
        co_return;
    }

    ++misses_;
    const uint64_t writeback = makeRoom(o.bytes);
    if (writeback > 0) {
        // Dirty evictions write asynchronously: they consume write
        // bandwidth but do not block the reader.
        loop_.spawn(ssd_.write(writeback));
    }
    o.loading = true;
    admit(id, o); // reserve space while loading
    diskReadBytes_ += o.bytes;
    const SimTime start = loop_.now();
    co_await ssd_.read(o.bytes);
    if (faults_ && faults_->drawTornPage()) {
        // The read returned an inconsistent image: its checksum (a
        // stale version's) does not match the stored one. Detect the
        // mismatch and heal by re-reading the page.
        const uint64_t image =
            pageChecksum(id, o.bytes, o.version + 1);
        if (image != o.checksum) {
            ++tornDetected_;
            faults_->notePageReread();
            diskReadBytes_ += o.bytes;
            co_await ssd_.read(o.bytes);
            if (pageChecksum(id, o.bytes, o.version) == o.checksum)
                faults_->notePageRecovered();
            else
                panic("torn page not healed by re-read");
        }
    }
    o.loading = false;
    if (stats)
        stats->add(WaitClass::PageIoLatch, loop_.now() - start);
    if (auto *tr = TraceRecorder::active())
        tr->complete(TraceRecorder::kEngineTrack, "wait",
                     waitClassName(WaitClass::PageIoLatch), start,
                     loop_.now(), "page", double(id));
    touchLru(id, o);
    for (auto h : o.loadWaiters)
        loop_.post(h);
    o.loadWaiters.clear();
}

BufferPool::TouchResult
BufferPool::touch(PageId id)
{
    Object &o = obj(id);
    TouchResult res;
    if (o.resident) {
        ++hits_;
        res.hit = true;
        touchLru(id, o);
        return res;
    }
    ++misses_;
    res.writeBytes = makeRoom(o.bytes);
    admit(id, o);
    diskReadBytes_ += o.bytes;
    res.readBytes = o.bytes;
    return res;
}

void
BufferPool::markDirty(PageId id)
{
    Object &o = obj(id);
    if (!o.resident) {
        // A write to a non-resident object implies a read-modify-
        // write; callers fix() first, so this indicates a bug.
        panic("markDirty on non-resident object");
    }
    if (!o.dirty) {
        o.dirty = true;
        dirtyBytes_ += o.bytes;
    }
    // Every logical modification produces a new consistent image.
    ++o.version;
    o.checksum = pageChecksum(id, o.bytes, o.version);
}

void
BufferPool::prewarm()
{
    for (PageId id : registrationOrder_) {
        Object &o = objects_.at(id);
        if (o.resident)
            continue;
        if (used_ + o.bytes > capacity_)
            break;
        admit(id, o);
    }
}

void
BufferPool::registerStats(StatsRegistry &reg,
                          const std::string &prefix) const
{
    reg.gauge(prefix + ".hits", [this] { return double(hits_); },
              "accesses satisfied from memory");
    reg.gauge(prefix + ".misses", [this] { return double(misses_); },
              "accesses that required an SSD read");
    reg.gauge(prefix + ".read_bytes",
              [this] { return double(diskReadBytes_); },
              "bytes read from SSD on misses");
    reg.gauge(prefix + ".writeback_bytes",
              [this] { return double(writebackBytes_); },
              "dirty bytes written back");
    reg.gauge(prefix + ".used_bytes", [this] { return double(used_); },
              "resident bytes");
    reg.gauge(prefix + ".dirty_bytes",
              [this] { return double(dirtyBytes_); },
              "resident dirty bytes");
    reg.gauge(prefix + ".capacity_bytes",
              [this] { return double(capacity_); }, "pool capacity");
}

uint64_t
BufferPool::flushDirty(uint64_t max_bytes)
{
    uint64_t flushed = 0;
    for (PageId id : lru_) {
        if (flushed >= max_bytes)
            break;
        Object &o = objects_.at(id);
        if (o.dirty && !o.loading) {
            o.dirty = false;
            dirtyBytes_ -= o.bytes;
            flushed += o.bytes;
        }
    }
    writebackBytes_ += flushed;
    return flushed;
}

} // namespace dbsens
