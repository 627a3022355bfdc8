#include "storage/buffer_pool.h"

#include <utility>

#include "core/logging.h"
#include "core/stats.h"
#include "core/trace.h"
#include "sim/fault.h"

namespace dbsens {

/**
 * Awaitable that parks a session on an in-flight load. The awaiter
 * lives in the suspended session's frame, so the waiters of one load
 * form an intrusive list (newest first) with no allocation.
 */
class BufferPool::LoadWait
{
  public:
    LoadWait(BufferPool &pool, PageId id) : pool_(pool), id_(id) {}

    bool await_ready() const noexcept { return false; }

    void
    await_suspend(std::coroutine_handle<> h)
    {
        Object &o = pool_.objects_[id_];
        handle = h;
        next = o.waiters;
        o.waiters = this;
    }

    void await_resume() const noexcept {}

    std::coroutine_handle<> handle;
    LoadWait *next = nullptr;

  private:
    BufferPool &pool_;
    PageId id_;
};

BufferPool::BufferPool(EventLoop &loop, SsdModel &ssd,
                       uint64_t capacity_bytes)
    : loop_(loop), ssd_(ssd), capacity_(capacity_bytes)
{
}

namespace {

/**
 * The object table's capacity is a multiple of this many objects
 * (224 KB), so successive runs on one database ask malloc for the same
 * block and reuse it, and a page allocated mid-run grows the table by
 * one step instead of doubling it. A capacity that moves with every
 * page a run adds leaves freed blocks that the next run cannot reuse
 * (+2% peak RSS on bench/e2e's oltp workload).
 */
constexpr size_t kTableStep = 4096;

size_t
tableCapacity(size_t ids)
{
    return (ids + kTableStep - 1) / kTableStep * kTableStep;
}

} // namespace

void
BufferPool::reserveObjects(PageId id_end, size_t count)
{
    objects_.reserve(tableCapacity(id_end));
    registrationOrder_.reserve(count);
}

void
BufferPool::registerObject(PageId id, uint64_t bytes)
{
    if (id >= kNil)
        panic("buffer object id " + std::to_string(id) + " out of range");
    if (id >= objects_.capacity())
        objects_.reserve(tableCapacity(id + 1));
    if (id >= objects_.size())
        objects_.resize(id + 1);
    Object &o = objects_[id];
    if (o.registered)
        panic("buffer object registered twice");
    o.registered = true;
    o.bytes = bytes;
    o.checksum = pageChecksum(id, bytes, 0);
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

const BufferPool::Object *
BufferPool::find(PageId id) const
{
    if (id >= objects_.size() || !objects_[id].registered)
        return nullptr;
    return &objects_[id];
}

uint64_t
BufferPool::objectChecksum(PageId id) const
{
    const Object *o = find(id);
    return o ? o->checksum : 0;
}

uint64_t
BufferPool::objectVersion(PageId id) const
{
    const Object *o = find(id);
    return o ? o->version : 0;
}

bool
BufferPool::verifyObject(PageId id) const
{
    const Object *o = find(id);
    return o && o->checksum == pageChecksum(id, o->bytes, o->version);
}

BufferPool::Object &
BufferPool::obj(PageId id)
{
    if (!find(id))
        panic("access to unregistered buffer object " + std::to_string(id));
    return objects_[id];
}

bool
BufferPool::isResident(PageId id) const
{
    const Object *o = find(id);
    return o && o->resident;
}

void
BufferPool::unlink(List &list, Links Object::*links, uint32_t i)
{
    const Links x = objects_[i].*links;
    (x.prev == kNil ? list.head : (objects_[x.prev].*links).next) = x.next;
    (x.next == kNil ? list.tail : (objects_[x.next].*links).prev) = x.prev;
}

void
BufferPool::linkBefore(List &list, Links Object::*links, uint32_t i,
                       uint32_t next)
{
    Links &x = objects_[i].*links;
    x.next = next;
    x.prev = next == kNil ? list.tail : (objects_[next].*links).prev;
    (x.prev == kNil ? list.head : (objects_[x.prev].*links).next) = i;
    (next == kNil ? list.tail : (objects_[next].*links).prev) = i;
}

void
BufferPool::touchLru(uint32_t i)
{
    if (lru_.tail == i)
        return;
    unlink(lru_, &Object::lruLinks, i);
    linkBefore(lru_, &Object::lruLinks, i, kNil);
    // The object is now the most recent of all, hence of the dirty
    // ones too: moving it to the dirty tail keeps the orders equal.
    if (objects_[i].dirty) {
        unlink(dirty_, &Object::dirtyLinks, i);
        linkBefore(dirty_, &Object::dirtyLinks, i, kNil);
    }
}

uint64_t
BufferPool::makeRoom(uint64_t needed)
{
    uint64_t writeback = 0;
    // The first in-flight load rotated past. Meeting it at the head
    // again means every entry left is loading: the object is then
    // admitted over capacity instead of rotating forever.
    uint32_t firstLoading = kNil;
    while (used_ + needed > capacity_ && lru_.head != kNil) {
        const uint32_t victim = lru_.head;
        Object &vo = objects_[victim];
        if (vo.loading) {
            // In-flight loads sit at the LRU head only transiently;
            // rotate past them.
            if (victim == firstLoading)
                break;
            if (firstLoading == kNil)
                firstLoading = victim;
            touchLru(victim);
            continue;
        }
        unlink(lru_, &Object::lruLinks, victim);
        vo.resident = false;
        used_ -= vo.bytes;
        if (vo.dirty) {
            vo.dirty = false;
            unlink(dirty_, &Object::dirtyLinks, victim);
            dirtyBytes_ -= vo.bytes;
            writeback += vo.bytes;
        }
    }
    writebackBytes_ += writeback;
    return writeback;
}

void
BufferPool::admit(uint32_t i)
{
    Object &o = objects_[i];
    o.resident = true;
    used_ += o.bytes;
    linkBefore(lru_, &Object::lruLinks, i, kNil);
}

Task<void>
BufferPool::fix(PageId id, WaitStats *stats)
{
    // A page allocated while this session is suspended may grow the
    // table, so no Object reference is held across a co_await.
    Object &o = obj(id);
    const auto i = uint32_t(id);
    if (o.resident && !o.loading) {
        ++hits_;
        touchLru(i);
        co_return;
    }
    if (o.loading) {
        // Another session is reading this object: join its waiters
        // and charge PAGEIOLATCH for the remaining load time.
        const SimTime start = loop_.now();
        co_await LoadWait(*this, id);
        if (stats)
            stats->add(WaitClass::PageIoLatch, loop_.now() - start);
        if (auto *tr = TraceRecorder::active())
            tr->complete(TraceRecorder::kEngineTrack, "wait",
                         waitClassName(WaitClass::PageIoLatch), start,
                         loop_.now(), "page", double(id));
        co_return;
    }

    ++misses_;
    const uint64_t bytes = o.bytes;
    const uint64_t writeback = makeRoom(bytes);
    if (writeback > 0) {
        // Dirty evictions write asynchronously: they consume write
        // bandwidth but do not block the reader.
        loop_.spawn(ssd_.write(writeback));
    }
    o.loading = true;
    admit(i); // reserve space while loading
    diskReadBytes_ += bytes;
    const SimTime start = loop_.now();
    co_await ssd_.read(bytes);
    if (faults_ && faults_->drawTornPage()) {
        // The read returned an inconsistent image: its checksum (a
        // stale version's) does not match the stored one. Detect the
        // mismatch and heal by re-reading the page.
        const uint64_t image =
            pageChecksum(id, bytes, objects_[i].version + 1);
        if (image != objects_[i].checksum) {
            ++tornDetected_;
            faults_->notePageReread();
            diskReadBytes_ += bytes;
            co_await ssd_.read(bytes);
            if (verifyObject(id))
                faults_->notePageRecovered();
            else
                panic("torn page not healed by re-read");
        }
    }
    objects_[i].loading = false;
    if (stats)
        stats->add(WaitClass::PageIoLatch, loop_.now() - start);
    if (auto *tr = TraceRecorder::active())
        tr->complete(TraceRecorder::kEngineTrack, "wait",
                     waitClassName(WaitClass::PageIoLatch), start,
                     loop_.now(), "page", double(id));
    touchLru(i);
    // Wake the waiters in arrival order: reverse the newest-first list.
    LoadWait *w = std::exchange(objects_[i].waiters, nullptr);
    LoadWait *fifo = nullptr;
    while (w) {
        LoadWait *next = w->next;
        w->next = fifo;
        fifo = w;
        w = next;
    }
    for (; fifo; fifo = fifo->next)
        loop_.post(fifo->handle);
}

BufferPool::TouchResult
BufferPool::touch(PageId id)
{
    Object &o = obj(id);
    TouchResult res;
    if (o.resident) {
        ++hits_;
        res.hit = true;
        touchLru(uint32_t(id));
        return res;
    }
    ++misses_;
    res.writeBytes = makeRoom(o.bytes);
    admit(uint32_t(id));
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
        // Link before the next dirty object in LRU order. Writers
        // fix() first, so the walk is short: the object is at or near
        // the MRU end.
        uint32_t next = o.lruLinks.next;
        while (next != kNil && !objects_[next].dirty)
            next = objects_[next].lruLinks.next;
        linkBefore(dirty_, &Object::dirtyLinks, uint32_t(id), next);
    }
    // Every logical modification produces a new consistent image.
    ++o.version;
    o.checksum = pageChecksum(id, o.bytes, o.version);
}

void
BufferPool::prewarm()
{
    for (PageId id : registrationOrder_) {
        const Object &o = objects_[id];
        if (o.resident)
            continue;
        if (used_ + o.bytes > capacity_)
            break;
        admit(uint32_t(id));
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
    // The dirty list is the LRU walk with the clean objects left out,
    // so this flushes what a walk of the whole LRU would.
    uint64_t flushed = 0;
    for (uint32_t i = dirty_.head; i != kNil && flushed < max_bytes;) {
        Object &o = objects_[i];
        const uint32_t next = o.dirtyLinks.next;
        if (!o.loading) {
            o.dirty = false;
            unlink(dirty_, &Object::dirtyLinks, i);
            dirtyBytes_ -= o.bytes;
            flushed += o.bytes;
        }
        i = next;
    }
    writebackBytes_ += flushed;
    return flushed;
}

} // namespace dbsens
