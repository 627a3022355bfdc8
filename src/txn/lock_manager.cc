#include "txn/lock_manager.h"

#include <algorithm>
#include <map>
#include <set>

#include "core/logging.h"
#include "core/trace.h"

namespace dbsens {

const char *
lockModeName(LockMode m)
{
    switch (m) {
      case LockMode::IS: return "IS";
      case LockMode::IX: return "IX";
      case LockMode::S: return "S";
      case LockMode::U: return "U";
      case LockMode::X: return "X";
    }
    return "?";
}

bool
lockCompatible(LockMode held, LockMode req)
{
    // Rows: held mode, columns: requested mode. Standard matrix.
    static const bool kCompat[5][5] = {
        //            IS     IX     S      U      X
        /* IS */ {true, true, true, true, false},
        /* IX */ {true, true, false, false, false},
        /* S  */ {true, false, true, true, false},
        /* U  */ {true, false, true, false, false},
        /* X  */ {false, false, false, false, false},
    };
    return kCompat[size_t(held)][size_t(req)];
}

namespace {

/** Awaitable parking a session until grant or timeout resumes it. */
struct WaiterPark
{
    LockManager::Waiter *entry;

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) { entry->handle = h; }
    void await_resume() const noexcept {}
};

} // namespace

bool
LockManager::compatibleWithHolders(const Queue &q, TxnId txn,
                                   LockMode mode) const
{
    for (const auto &h : q.holders) {
        if (h.txn == txn)
            continue;
        if (!lockCompatible(h.mode, mode))
            return false;
    }
    return true;
}

Task<bool>
LockManager::acquire(TxnId txn, TableId table, RowId row, LockMode mode,
                     WaitStats *stats)
{
    const uint64_t key = keyOf(table, row);
    Queue &q = queues_[key];

    // Re-entrant / upgrade fast path.
    bool already_holds = false;
    for (auto &h : q.holders) {
        if (h.txn != txn)
            continue;
        already_holds = true;
        if (size_t(h.mode) >= size_t(mode))
            co_return true; // equal or stronger mode already held
        if (compatibleWithHolders(q, txn, mode)) {
            h.mode = mode;
            ++grants_;
            co_return true;
        }
        break;
    }

    // Fresh grant: compatible with holders and nobody queued ahead
    // (no barging past earlier waiters).
    if (!already_holds && q.waiters.empty() &&
        compatibleWithHolders(q, txn, mode)) {
        q.holders.push_back({txn, mode});
        held_[txn].push_back(key);
        ++grants_;
        co_return true;
    }

    // Must wait. Upgrades jump to the queue front so shared holders
    // can drain past a pending U->X conversion without new grants
    // starving it.
    const uint64_t waiter_id = ++nextWaiterId_;
    auto *entry = new Waiter{txn, mode, waiter_id, {}, false, false,
                             false};
    if (already_holds)
        q.waiters.push_front(entry);
    else
        q.waiters.push_back(entry);

    const SimTime start = loop_.now();

    // Timeout-based deadlock resolution: if the entry is still queued
    // when the timer fires, pull it out and resume with failure. The
    // waiter is identified by its unique id (never by pointer: a
    // granted-and-freed entry's address could be reused by a later
    // waiter on the same key).
    loop_.after(timeout_, [this, key, waiter_id] {
        auto qit = queues_.find(key);
        if (qit == queues_.end())
            return;
        auto &waiters = qit->second.waiters;
        auto it = std::find_if(waiters.begin(), waiters.end(),
                               [waiter_id](const Waiter *w) {
                                   return w->id == waiter_id;
                               });
        if (it == waiters.end())
            return; // granted already
        (*it)->timedOut = true;
        auto handle = (*it)->handle;
        waiters.erase(it);
        loop_.post(handle);
    });

    co_await WaiterPark{entry};

    // A detected victim's blocked time is its own wait class: the
    // paper's LOCK waits are productive queueing, while deadlock time
    // is pure loss until the monitor breaks the cycle.
    const WaitClass wc = entry->deadlockVictim ? WaitClass::Deadlock
                                               : WaitClass::Lock;
    if (stats)
        stats->add(wc, loop_.now() - start);
    if (auto *tr = TraceRecorder::active())
        tr->complete(TraceRecorder::kEngineTrack, "wait",
                     std::string(waitClassName(wc)) + "(" +
                         lockModeName(mode) + ")",
                     start, loop_.now(), "txn", double(txn));

    const bool timed_out = entry->timedOut;
    const bool victimized = entry->deadlockVictim;
    const bool granted = entry->granted;
    delete entry;
    if (timed_out) {
        ++timeouts_;
        co_return false;
    }
    if (victimized)
        co_return false; // deadlocks_ counted at victimization
    if (!granted)
        panic("lock waiter resumed without grant or timeout");
    co_return true;
}

size_t
LockManager::detectDeadlocks()
{
    size_t victims = 0;
    for (;;) {
        // Build the waits-for graph. A waiter is blocked by every
        // incompatible holder AND every earlier waiter in its FIFO
        // queue (pump() stops at the first ungrantable head, so queue
        // order is a real dependency — no false cycles). Ordered maps
        // keep detection and victim choice deterministic regardless
        // of hash-table layout.
        std::map<TxnId, std::set<TxnId>> blockedBy;
        std::map<TxnId, Waiter *> waiterOf;
        std::map<TxnId, uint64_t> waiterKey;
        for (const auto &[key, q] : queues_) {
            for (size_t i = 0; i < q.waiters.size(); ++i) {
                Waiter *w = q.waiters[i];
                auto &adj = blockedBy[w->txn];
                for (const auto &h : q.holders)
                    if (h.txn != w->txn &&
                        !lockCompatible(h.mode, w->mode))
                        adj.insert(h.txn);
                for (size_t j = 0; j < i; ++j)
                    if (q.waiters[j]->txn != w->txn)
                        adj.insert(q.waiters[j]->txn);
                waiterOf[w->txn] = w;
                waiterKey[w->txn] = key;
            }
        }

        // Iterative DFS for one cycle (colors: 0 white, 1 on stack,
        // 2 done). Only waiting transactions have outgoing edges, so
        // every cycle member is a parked waiter we can victimize.
        std::map<TxnId, int> color;
        std::vector<TxnId> cycle;
        for (const auto &[root, adj0] : blockedBy) {
            (void)adj0;
            if (color[root] != 0)
                continue;
            std::vector<std::pair<TxnId, size_t>> stack;
            std::vector<TxnId> path;
            stack.push_back({root, 0});
            color[root] = 1;
            path.push_back(root);
            while (!stack.empty() && cycle.empty()) {
                auto &[t, next] = stack.back();
                const auto it = blockedBy.find(t);
                const size_t deg =
                    it == blockedBy.end() ? 0 : it->second.size();
                if (next >= deg) {
                    color[t] = 2;
                    stack.pop_back();
                    path.pop_back();
                    continue;
                }
                auto adjIt = it->second.begin();
                std::advance(adjIt, long(next));
                ++next;
                const TxnId to = *adjIt;
                if (color[to] == 1) {
                    // Found a cycle: the path suffix from `to`.
                    auto pit =
                        std::find(path.begin(), path.end(), to);
                    cycle.assign(pit, path.end());
                } else if (color[to] == 0 && blockedBy.count(to)) {
                    color[to] = 1;
                    stack.push_back({to, 0});
                    path.push_back(to);
                }
            }
            if (!cycle.empty())
                break;
        }
        if (cycle.empty())
            break;

        // Cost-based victim: cheapest to roll back = fewest held
        // locks; ties go to the youngest (highest TxnId).
        TxnId victim = cycle.front();
        size_t victimCost = heldCount(victim);
        for (size_t i = 1; i < cycle.size(); ++i) {
            const size_t cost = heldCount(cycle[i]);
            if (cost < victimCost ||
                (cost == victimCost && cycle[i] > victim)) {
                victim = cycle[i];
                victimCost = cost;
            }
        }

        Waiter *w = waiterOf.at(victim);
        const uint64_t key = waiterKey.at(victim);
        Queue &q = queues_.at(key);
        auto wit = std::find(q.waiters.begin(), q.waiters.end(), w);
        if (wit == q.waiters.end())
            panic("deadlock victim not in its wait queue");
        q.waiters.erase(wit);
        w->deadlockVictim = true;
        ++deadlocks_;
        ++victims;
        loop_.post(w->handle);
        // Removing the victim may unblock the queue head.
        pump(key, q);
        if (q.holders.empty() && q.waiters.empty())
            queues_.erase(key);
    }
    return victims;
}

std::vector<TxnId>
LockManager::holdingTxns() const
{
    std::vector<TxnId> out;
    out.reserve(held_.size());
    for (const auto &[txn, keys] : held_)
        if (!keys.empty())
            out.push_back(txn);
    std::sort(out.begin(), out.end());
    return out;
}

std::vector<TxnId>
LockManager::waitingTxns() const
{
    std::vector<TxnId> out;
    for (const auto &[key, q] : queues_)
        for (const Waiter *w : q.waiters)
            out.push_back(w->txn);
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
    return out;
}

bool
LockManager::auditConsistent(std::string *err) const
{
    auto fail = [&](const std::string &msg) {
        if (err) {
            if (!err->empty())
                *err += "; ";
            *err += msg;
        }
        return false;
    };
    bool ok = true;
    // Every holder entry must be indexed in held_.
    for (const auto &[key, q] : queues_) {
        if (q.holders.empty() && q.waiters.empty())
            ok = fail("empty queue retained for key " +
                      std::to_string(key));
        for (const auto &h : q.holders) {
            const auto it = held_.find(h.txn);
            if (it == held_.end() ||
                std::find(it->second.begin(), it->second.end(), key) ==
                    it->second.end())
                ok = fail("holder txn " + std::to_string(h.txn) +
                          " missing from held index");
        }
        for (const Waiter *w : q.waiters) {
            if (w->granted)
                ok = fail("queued waiter txn " +
                          std::to_string(w->txn) + " marked granted");
            if (w->timedOut || w->deadlockVictim)
                ok = fail("aborted waiter txn " +
                          std::to_string(w->txn) + " still queued");
        }
    }
    // Every held_ entry must have a matching holder.
    for (const auto &[txn, keys] : held_) {
        for (const uint64_t key : keys) {
            const auto qit = queues_.find(key);
            if (qit == queues_.end()) {
                ok = fail("held key " + std::to_string(key) +
                          " of txn " + std::to_string(txn) +
                          " has no queue");
                continue;
            }
            const auto &hs = qit->second.holders;
            if (std::find_if(hs.begin(), hs.end(),
                             [txn = txn](const Holder &h) {
                                 return h.txn == txn;
                             }) == hs.end())
                ok = fail("txn " + std::to_string(txn) +
                          " indexed as holding key " +
                          std::to_string(key) + " without a holder");
        }
    }
    return ok;
}

void
LockManager::pump(uint64_t key, Queue &q)
{
    while (!q.waiters.empty()) {
        Waiter *w = q.waiters.front();
        if (!compatibleWithHolders(q, w->txn, w->mode))
            break;
        q.waiters.pop_front();
        Holder *own = nullptr;
        for (auto &h : q.holders)
            if (h.txn == w->txn)
                own = &h;
        if (own) {
            if (size_t(own->mode) < size_t(w->mode))
                own->mode = w->mode;
        } else {
            q.holders.push_back({w->txn, w->mode});
            held_[w->txn].push_back(key);
        }
        ++grants_;
        w->granted = true;
        loop_.post(w->handle);
    }
}

void
LockManager::releaseAll(TxnId txn)
{
    auto it = held_.find(txn);
    if (it == held_.end())
        return;
    // Take the key list by value: pump() may grant to other txns but
    // never mutates this txn's list; still, keep iteration safe.
    const std::vector<uint64_t> keys = std::move(it->second);
    held_.erase(it);
    for (uint64_t key : keys) {
        auto qit = queues_.find(key);
        if (qit == queues_.end())
            continue;
        auto &q = qit->second;
        q.holders.erase(std::remove_if(q.holders.begin(), q.holders.end(),
                                       [txn](const Holder &h) {
                                           return h.txn == txn;
                                       }),
                        q.holders.end());
        pump(key, q);
        if (q.holders.empty() && q.waiters.empty())
            queues_.erase(qit);
    }
}

size_t
LockManager::heldCount(TxnId txn) const
{
    auto it = held_.find(txn);
    if (it == held_.end())
        return 0;
    std::vector<uint64_t> keys(it->second);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys.size();
}

} // namespace dbsens
