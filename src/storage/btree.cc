#include "storage/btree.h"

#include <algorithm>
#include <cmath>

#include "core/calibration.h"
#include "core/logging.h"

namespace dbsens {

/**
 * Node layout: keys[] plus either rows[] (leaf) or kids[] with
 * kids.size() == keys.size() + 1 (inner). Leaf entries are ordered by
 * (key, row) to give duplicates a total order.
 */
struct BTree::Node
{
    bool leaf;
    PageId page;
    std::vector<int64_t> keys;
    std::vector<RowId> rows;   // leaf payloads
    std::vector<Node *> kids;  // inner children
    Node *next = nullptr;      // leaf chain
};

BTree::BTree(PageAllocator page_alloc, VirtualRegion region)
    : pageAlloc_(std::move(page_alloc)), region_(region)
{
    root_ = makeNode(true);
}

BTree::~BTree()
{
    destroy(root_);
}

void
BTree::destroy(Node *n)
{
    if (!n)
        return;
    if (!n->leaf)
        for (Node *k : n->kids)
            destroy(k);
    delete n;
}

BTree::Node *
BTree::makeNode(bool leaf)
{
    Node *n = new Node();
    n->leaf = leaf;
    n->page = pageAlloc_ ? pageAlloc_(kPageSize) : PageId(nodes_);
    ++nodes_;
    return n;
}

BTree::Node *
BTree::findLeaf(int64_t key, RowId row, std::vector<PageId> *touched) const
{
    // Leftmost descent: the first child whose separator is >= key may
    // still contain duplicates of `key` (splits copy the right node's
    // first key up as the separator, leaving equal keys on the left).
    // Readers therefore descend left of equal separators and walk the
    // leaf chain rightwards.
    (void)row;
    Node *n = root_;
    while (!n->leaf) {
        if (touched)
            touched->push_back(n->page);
        const auto it =
            std::lower_bound(n->keys.begin(), n->keys.end(), key);
        n = n->kids[size_t(it - n->keys.begin())];
    }
    if (touched)
        touched->push_back(n->page);
    return n;
}

void
BTree::insert(int64_t key, RowId row, std::vector<PageId> *touched)
{
    Node *path[kMaxHeight];
    int depth = 0;
    Node *n = root_;
    while (!n->leaf) {
        path[depth++] = n;
        if (touched)
            touched->push_back(n->page);
        const auto it =
            std::upper_bound(n->keys.begin(), n->keys.end(), key);
        n = n->kids[size_t(it - n->keys.begin())];
    }
    if (touched)
        touched->push_back(n->page);

    // Position by (key, row).
    size_t pos = size_t(std::lower_bound(n->keys.begin(), n->keys.end(),
                                         key) - n->keys.begin());
    while (pos < n->keys.size() && n->keys[pos] == key &&
           n->rows[pos] < row)
        ++pos;
    n->keys.insert(n->keys.begin() + long(pos), key);
    n->rows.insert(n->rows.begin() + long(pos), row);
    ++entries_;

    if (n->keys.size() <= kLeafCap)
        return;

    // Split leaf.
    Node *right = makeNode(true);
    const size_t half = n->keys.size() / 2;
    right->keys.assign(n->keys.begin() + long(half), n->keys.end());
    right->rows.assign(n->rows.begin() + long(half), n->rows.end());
    n->keys.resize(half);
    n->rows.resize(half);
    right->next = n->next;
    n->next = right;
    if (touched)
        touched->push_back(right->page);
    insertInner(path, depth, n, right->keys.front(), right);
}

void
BTree::insertInner(Node **path, int depth, Node *left, int64_t sep,
                   Node *right)
{
    if (depth == 0) {
        if (height_ == kMaxHeight)
            panic("B-tree height exceeds kMaxHeight");
        Node *new_root = makeNode(false);
        new_root->keys.push_back(sep);
        new_root->kids.push_back(left);
        new_root->kids.push_back(right);
        root_ = new_root;
        ++height_;
        return;
    }
    Node *parent = path[--depth];
    const auto it =
        std::upper_bound(parent->keys.begin(), parent->keys.end(), sep);
    const size_t pos = size_t(it - parent->keys.begin());
    parent->keys.insert(parent->keys.begin() + long(pos), sep);
    parent->kids.insert(parent->kids.begin() + long(pos) + 1, right);

    if (parent->keys.size() <= kInnerCap)
        return;

    Node *rnode = makeNode(false);
    const size_t mid = parent->keys.size() / 2;
    const int64_t up = parent->keys[mid];
    rnode->keys.assign(parent->keys.begin() + long(mid) + 1,
                       parent->keys.end());
    rnode->kids.assign(parent->kids.begin() + long(mid) + 1,
                       parent->kids.end());
    parent->keys.resize(mid);
    parent->kids.resize(mid + 1);
    insertInner(path, depth, parent, up, rnode);
}

bool
BTree::erase(int64_t key, RowId row)
{
    // Duplicates may span leaves; walk the chain from the leftmost
    // candidate leaf until a key greater than `key` appears.
    Node *n = findLeaf(key, row, nullptr);
    while (n) {
        size_t pos = size_t(std::lower_bound(n->keys.begin(),
                                             n->keys.end(), key) -
                            n->keys.begin());
        for (; pos < n->keys.size(); ++pos) {
            if (n->keys[pos] > key)
                return false;
            if (n->rows[pos] == row) {
                n->keys.erase(n->keys.begin() + long(pos));
                n->rows.erase(n->rows.begin() + long(pos));
                --entries_;
                return true;
            }
        }
        n = n->next; // remaining duplicates continue in the next leaf
    }
    return false;
}

RowId
BTree::seek(int64_t key, std::vector<PageId> *touched) const
{
    Node *n = findLeaf(key, 0, touched);
    while (n) {
        const auto it =
            std::lower_bound(n->keys.begin(), n->keys.end(), key);
        const size_t pos = size_t(it - n->keys.begin());
        if (pos < n->keys.size())
            return n->keys[pos] == key ? n->rows[pos] : kInvalidRow;
        n = n->next; // key range may continue in the next leaf
        if (n && touched)
            touched->push_back(n->page);
        if (n && (n->keys.empty() || n->keys.front() > key))
            return kInvalidRow;
    }
    return kInvalidRow;
}

std::vector<RowId>
BTree::seekAll(int64_t key, std::vector<PageId> *touched) const
{
    std::vector<RowId> out;
    scanRange(key, key,
              [&](int64_t, RowId r) {
                  out.push_back(r);
                  return true;
              },
              touched);
    return out;
}

void
BTree::scanRange(int64_t lo, int64_t hi,
                 const std::function<bool(int64_t, RowId)> &visit,
                 std::vector<PageId> *touched) const
{
    if (lo > hi)
        return;
    Node *n = findLeaf(lo, 0, touched);
    size_t pos = size_t(std::lower_bound(n->keys.begin(), n->keys.end(),
                                         lo) - n->keys.begin());
    while (n) {
        for (; pos < n->keys.size(); ++pos) {
            if (n->keys[pos] > hi)
                return;
            if (!visit(n->keys[pos], n->rows[pos]))
                return;
        }
        n = n->next;
        pos = 0;
        if (n && touched)
            touched->push_back(n->page);
    }
}

void
BTree::cacheTouches(double f, std::vector<uint64_t> &out) const
{
    if (!region_.valid())
        return;
    // Full-scale geometry: entries * K spread over leaves of kLeafCap,
    // then inner levels of fanout kInnerCap up to a single root.
    double level_nodes =
        std::max(1.0, double(entries_) * double(calib::kScaleK) /
                          double(kLeafCap));
    // Assign each level a slice of the region, leaves first.
    uint64_t offset = 0;
    while (true) {
        const auto level_bytes = uint64_t(level_nodes) * kPageSize;
        uint64_t addr = region_.base + offset +
                        uint64_t(f * double(level_bytes));
        if (addr >= region_.base + region_.size)
            addr = region_.base + region_.size - 64;
        out.push_back(addr);
        if (level_nodes <= 1.0)
            break;
        offset += level_bytes;
        level_nodes = std::ceil(level_nodes / double(kInnerCap));
    }
}

void
BTree::checkInvariants() const
{
    // Recursively check sorted keys and uniform leaf depth.
    struct Walker
    {
        int leafDepth = -1;
        uint64_t entries = 0;

        void
        walk(const Node *n, int depth, int64_t lo, int64_t hi)
        {
            for (size_t i = 1; i < n->keys.size(); ++i)
                if (n->keys[i - 1] > n->keys[i])
                    panic("btree: keys out of order");
            if (!n->keys.empty()) {
                if (n->keys.front() < lo || n->keys.back() > hi)
                    panic("btree: key outside separator bounds");
            }
            if (n->leaf) {
                if (leafDepth < 0)
                    leafDepth = depth;
                else if (leafDepth != depth)
                    panic("btree: uneven leaf depth");
                entries += n->keys.size();
                return;
            }
            if (n->kids.size() != n->keys.size() + 1)
                panic("btree: inner child count mismatch");
            for (size_t i = 0; i < n->kids.size(); ++i) {
                const int64_t klo = i == 0 ? lo : n->keys[i - 1];
                const int64_t khi =
                    i == n->keys.size() ? hi : n->keys[i];
                walk(n->kids[i], depth + 1, klo, khi);
            }
        }
    };
    Walker w;
    w.walk(root_, 0, INT64_MIN, INT64_MAX);
    if (w.entries != entries_)
        panic("btree: entry count mismatch");
}

bool
BTree::validate(std::string *err) const
{
    // Same checks as checkInvariants(), but reporting instead of
    // aborting, so online auditors can collect violations.
    struct Walker
    {
        int leafDepth = -1;
        uint64_t entries = 0;
        const char *fault = nullptr;

        void
        walk(const Node *n, int depth, int64_t lo, int64_t hi)
        {
            if (fault)
                return;
            for (size_t i = 1; i < n->keys.size(); ++i)
                if (n->keys[i - 1] > n->keys[i]) {
                    fault = "keys out of order";
                    return;
                }
            if (!n->keys.empty() &&
                (n->keys.front() < lo || n->keys.back() > hi)) {
                fault = "key outside separator bounds";
                return;
            }
            if (n->leaf) {
                if (leafDepth < 0)
                    leafDepth = depth;
                else if (leafDepth != depth) {
                    fault = "uneven leaf depth";
                    return;
                }
                entries += n->keys.size();
                return;
            }
            if (n->kids.size() != n->keys.size() + 1) {
                fault = "inner child count mismatch";
                return;
            }
            for (size_t i = 0; i < n->kids.size() && !fault; ++i) {
                const int64_t klo = i == 0 ? lo : n->keys[i - 1];
                const int64_t khi =
                    i == n->keys.size() ? hi : n->keys[i];
                walk(n->kids[i], depth + 1, klo, khi);
            }
        }
    };
    Walker w;
    w.walk(root_, 0, INT64_MIN, INT64_MAX);
    const char *fault = w.fault;
    if (!fault && w.entries != entries_)
        fault = "entry count mismatch";
    if (fault) {
        if (err) {
            if (!err->empty())
                *err += "; ";
            *err += "btree: ";
            *err += fault;
        }
        return false;
    }
    return true;
}

} // namespace dbsens
