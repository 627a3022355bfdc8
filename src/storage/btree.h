/**
 * @file
 * B+tree index: int64 key -> RowId, multimap semantics (secondary
 * indexes may have duplicate keys; ties break by RowId).
 *
 * The tree is a real node structure used functionally by transactions
 * and index seeks. Two accounting views accompany it:
 *
 *  - Buffer view: every node is an 8 KB page registered with the
 *    buffer pool via the owner-provided page allocator; seekPath()
 *    reports the visited pages so sessions can fix() them (generating
 *    PAGEIOLATCH waits when cold).
 *
 *  - Cache view: the paper's tree is K times larger, so per-level
 *    touch addresses are generated analytically in full-scale virtual
 *    space: a seek at key-space fraction f touches one line per
 *    full-scale level at that level's region offset + f. Upper levels
 *    are small (hot), leaf level is huge (cold) — the same locality
 *    structure as the real machine's.
 */

#ifndef DBSENS_STORAGE_BTREE_H
#define DBSENS_STORAGE_BTREE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "hw/virtual_space.h"

namespace dbsens {

/** Allocate-and-register a page of `bytes`; returns its PageId. */
using PageAllocator = std::function<PageId(uint64_t bytes)>;

/** B+tree index over int64 keys with duplicate support. */
class BTree
{
  public:
    /** Entries per leaf / per inner node (8 KB pages, 16 B entries). */
    static constexpr size_t kLeafCap = 256;
    static constexpr size_t kInnerCap = 256;

    /**
     * Height bound for insert()'s on-stack descent path. Erases never
     * shrink inner nodes and a split leaves each half at least 128
     * keys, so a tree of height h took more than 129^(h-2) leaf splits:
     * 2^64 inserts stay below height 11.
     */
    static constexpr int kMaxHeight = 16;

    /**
     * @param page_alloc allocator registering node pages with the
     *        buffer pool (may be a plain counter in tests).
     * @param region full-scale virtual region for cache modelling
     *        (invalid region disables cache touches).
     */
    BTree(PageAllocator page_alloc, VirtualRegion region);
    ~BTree();

    BTree(const BTree &) = delete;
    BTree &operator=(const BTree &) = delete;

    /** Insert (key, row). Returns pages touched along the path. */
    void insert(int64_t key, RowId row,
                std::vector<PageId> *touched = nullptr);

    /** Remove one (key, row) entry; returns true if found. */
    bool erase(int64_t key, RowId row);

    /** First RowId for key, or kInvalidRow. */
    RowId seek(int64_t key, std::vector<PageId> *touched = nullptr) const;

    /** All RowIds for key. */
    std::vector<RowId> seekAll(int64_t key,
                               std::vector<PageId> *touched = nullptr) const;

    /**
     * Visit entries with lo <= key <= hi in key order. Visitor returns
     * false to stop early.
     */
    void scanRange(int64_t lo, int64_t hi,
                   const std::function<bool(int64_t, RowId)> &visit,
                   std::vector<PageId> *touched = nullptr) const;

    uint64_t entryCount() const { return entries_; }
    uint64_t nodeCount() const { return nodes_; }
    int height() const { return height_; }

    /** Physical bytes of the index (node pages). */
    uint64_t bytes() const { return nodes_ * kPageSize; }

    /**
     * Reported index size: entries at ~12 B each (key-prefix
     * compression), which is how server DBMSs report index space.
     */
    uint64_t logicalBytes() const { return entries_ * 12; }

    /**
     * Full-scale cache-touch addresses for a seek at key-space
     * fraction `f` in [0,1): one address per full-scale level.
     */
    void cacheTouches(double f, std::vector<uint64_t> &out) const;

    /** Validate B+tree invariants (test support): sorted keys,
     * balanced depth, fill bounds. Aborts on violation. */
    void checkInvariants() const;

    /**
     * Non-aborting variant of checkInvariants() for online auditors:
     * returns true when the tree is structurally sound, else appends a
     * description of the first violation to `err`.
     */
    bool validate(std::string *err) const;

  private:
    struct Node;

    Node *makeNode(bool leaf);
    void destroy(Node *n);

    /** Descend to the leaf that should contain (key, row). */
    Node *findLeaf(int64_t key, RowId row,
                   std::vector<PageId> *touched) const;

    /** Insert separator `sep` into path[depth - 1] (a new root when
     * depth is 0), splitting upward as needed. */
    void insertInner(Node **path, int depth, Node *left, int64_t sep,
                     Node *right);

    PageAllocator pageAlloc_;
    VirtualRegion region_;
    Node *root_ = nullptr;
    uint64_t entries_ = 0;
    uint64_t nodes_ = 0;
    int height_ = 1;
};

} // namespace dbsens

#endif // DBSENS_STORAGE_BTREE_H
