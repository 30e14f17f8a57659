// In-memory B+Tree with ordered iteration and range scans.
//
// This is the index workhorse of two engines: the BlazeGraph-like triple
// store keeps three of these (SPO/POS/OSP) and pays the rebalancing cost on
// every statement insert — exactly the behaviour the paper measures as
// BlazeGraph's pathological load/insert times — and the Sqlg-like
// relational engine uses it for its secondary indexes.
//
// Design notes:
//  * The tree is a template over (Key, Value) and stores entries sorted by
//    (key, value), i.e. it is a *multimap*: one key may map to several
//    values, which a scan visits in value order.
//  * Deletion is by lazy removal without rebalancing (tombstone-free erase
//    from the leaf). Underfull leaves are tolerated; this matches common
//    production practice and keeps erase O(log n).
//  * SerializedBytes() reports the on-disk footprint: node arrays plus
//    fixed per-node headers, so that half-full leaves cost real space
//    (the replication the paper observes in Fig. 1 for BlazeGraph).

#ifndef GDBMICRO_STORAGE_BTREE_H_
#define GDBMICRO_STORAGE_BTREE_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/util/function_ref.h"

namespace gdbmicro {

template <typename Key, typename Value>
class BTree {
 public:
  using Entry = std::pair<Key, Value>;

  BTree() { root_ = NewLeaf(); }

  /// Inserts (key, value). Duplicate (key, value) pairs are ignored.
  /// Returns true if inserted.
  bool Insert(const Key& key, const Value& value) {
    Entry e{key, value};
    SplitResult split = InsertRec(root_.get(), e);
    if (split.happened) {
      auto new_root = NewInternal();
      new_root->keys.push_back(split.separator);
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(split.right));
      root_ = std::move(new_root);
      ++height_;
    }
    return last_insert_new_;
  }

  /// Bulk-builds the tree from entries sorted ascending by (key, value)
  /// with no duplicate entries, replacing the current contents. This is
  /// the native-loader path: one O(n) bottom-up construction instead of n
  /// root-to-leaf descents with rebalancing — the per-statement cost the
  /// paper measures for BlazeGraph's triple indexes. Leaves are packed
  /// full, so the first post-build insert into a full leaf splits it; the
  /// bulk loaders accept that write-amplification trade. Takes a const
  /// ref (entries are copied into the leaves) so callers can reuse one
  /// staging buffer across many trees.
  void BuildFrom(const std::vector<Entry>& entries) {
    assert(std::is_sorted(entries.begin(), entries.end()));
    root_ = nullptr;
    node_count_ = 0;
    leaf_count_ = 0;
    size_ = entries.size();
    height_ = 1;
    if (entries.empty()) {
      root_ = NewLeaf();
      return;
    }
    std::vector<std::unique_ptr<Node>> level;
    std::vector<Entry> firsts;  // smallest entry of each node in `level`
    for (size_t i = 0; i < entries.size();) {
      size_t n = std::min(kLeafCapacity, entries.size() - i);
      auto leaf = NewLeaf();
      leaf->entries.assign(entries.begin() + static_cast<long>(i),
                           entries.begin() + static_cast<long>(i + n));
      firsts.push_back(leaf->entries.front());
      level.push_back(std::move(leaf));
      i += n;
    }
    while (level.size() > 1) {
      std::vector<std::unique_ptr<Node>> next;
      std::vector<Entry> next_firsts;
      for (size_t i = 0; i < level.size();) {
        size_t n = std::min(kInternalCapacity + 1, level.size() - i);
        // Never strand a single child in the trailing node.
        if (level.size() - i - n == 1) --n;
        auto node = NewInternal();
        for (size_t j = 0; j < n; ++j) {
          if (j > 0) node->keys.push_back(firsts[i + j]);
          node->children.push_back(std::move(level[i + j]));
        }
        next_firsts.push_back(firsts[i]);
        next.push_back(std::move(node));
        i += n;
      }
      level = std::move(next);
      firsts = std::move(next_firsts);
      ++height_;
    }
    root_ = std::move(level.front());
  }

  /// Erases the exact (key, value) entry. Returns true if found.
  bool Erase(const Key& key, const Value& value) {
    Node* n = root_.get();
    Entry e{key, value};
    while (!n->leaf) {
      n = n->children[ChildIndex(n, e)].get();
    }
    auto it = std::lower_bound(n->entries.begin(), n->entries.end(), e);
    if (it == n->entries.end() || *it != e) return false;
    n->entries.erase(it);
    --size_;
    return true;
  }

  /// True if the exact (key, value) entry exists.
  bool Contains(const Key& key, const Value& value) const {
    const Node* n = root_.get();
    Entry e{key, value};
    while (!n->leaf) {
      n = n->children[ChildIndex(n, e)].get();
    }
    return std::binary_search(n->entries.begin(), n->entries.end(), e);
  }

  /// Visits every value mapped to `key`, in value order. Return false from
  /// `fn` to stop. Returns false if iteration was stopped early.
  bool ScanKey(const Key& key, FunctionRef<bool(const Value&)> fn) const {
    return ScanRange(key, key, [&](const Key&, const Value& v) { return fn(v); });
  }

  /// Visits every entry with lo <= key <= hi in ascending order.
  /// Return false from `fn` to stop. Returns false if stopped early.
  bool ScanRange(const Key& lo, const Key& hi,
                 FunctionRef<bool(const Key&, const Value&)> fn) const {
    return ScanRangeRec(root_.get(), lo, hi, fn);
  }

  /// Visits all entries in ascending order.
  bool ScanAll(FunctionRef<bool(const Key&, const Value&)> fn) const {
    return ScanAllRec(root_.get(), fn);
  }

  /// Number of values stored under `key`.
  uint64_t CountKey(const Key& key) const {
    uint64_t n = 0;
    ScanKey(key, [&](const Value&) {
      ++n;
      return true;
    });
    return n;
  }

  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int height() const { return height_; }

  /// Number of tree nodes (leaves + internals).
  uint64_t NodeCount() const { return node_count_; }

  /// Estimated serialized footprint: per-node header plus full node
  /// capacity for allocated nodes (mirrors page-granular on-disk layout).
  uint64_t SerializedBytes(uint64_t entry_bytes) const {
    // Each node occupies a fixed page worth of its capacity.
    uint64_t leaf_page = kNodeHeaderBytes + kLeafCapacity * entry_bytes;
    uint64_t internal_page =
        kNodeHeaderBytes + kInternalCapacity * (entry_bytes + 8);
    return leaf_count_ * leaf_page + (node_count_ - leaf_count_) * internal_page;
  }

  void Clear() {
    root_ = nullptr;
    node_count_ = 0;
    leaf_count_ = 0;
    root_ = NewLeaf();
    size_ = 0;
    height_ = 1;
  }

 private:
  static constexpr size_t kLeafCapacity = 64;
  static constexpr size_t kInternalCapacity = 64;
  static constexpr uint64_t kNodeHeaderBytes = 32;

  struct Node {
    bool leaf = true;
    std::vector<Entry> entries;                   // leaf payload
    std::vector<Entry> keys;                      // internal separators
    std::vector<std::unique_ptr<Node>> children;  // internal children
  };

  struct SplitResult {
    bool happened = false;
    Entry separator{};
    std::unique_ptr<Node> right;
  };

  std::unique_ptr<Node> NewLeaf() {
    auto n = std::make_unique<Node>();
    n->leaf = true;
    ++node_count_;
    ++leaf_count_;
    return n;
  }

  std::unique_ptr<Node> NewInternal() {
    auto n = std::make_unique<Node>();
    n->leaf = false;
    ++node_count_;
    return n;
  }

  static size_t ChildIndex(const Node* n, const Entry& e) {
    // keys[i] is the smallest entry of children[i+1].
    size_t idx =
        static_cast<size_t>(std::upper_bound(n->keys.begin(), n->keys.end(), e) -
                            n->keys.begin());
    return idx;
  }

  SplitResult InsertRec(Node* n, const Entry& e) {
    if (n->leaf) {
      auto it = std::lower_bound(n->entries.begin(), n->entries.end(), e);
      if (it != n->entries.end() && *it == e) {
        last_insert_new_ = false;
        return {};
      }
      n->entries.insert(it, e);
      last_insert_new_ = true;
      ++size_;
      if (n->entries.size() <= kLeafCapacity) return {};
      // Split leaf.
      SplitResult split;
      split.happened = true;
      auto right = NewLeaf();
      size_t mid = n->entries.size() / 2;
      right->entries.assign(n->entries.begin() + static_cast<long>(mid),
                            n->entries.end());
      n->entries.resize(mid);
      split.separator = right->entries.front();
      split.right = std::move(right);
      return split;
    }
    size_t idx = ChildIndex(n, e);
    SplitResult child_split = InsertRec(n->children[idx].get(), e);
    if (!child_split.happened) return {};
    n->keys.insert(n->keys.begin() + static_cast<long>(idx),
                   child_split.separator);
    n->children.insert(n->children.begin() + static_cast<long>(idx) + 1,
                       std::move(child_split.right));
    if (n->keys.size() <= kInternalCapacity) return {};
    // Split internal.
    SplitResult split;
    split.happened = true;
    auto right = NewInternal();
    size_t mid = n->keys.size() / 2;
    split.separator = n->keys[mid];
    right->keys.assign(n->keys.begin() + static_cast<long>(mid) + 1,
                       n->keys.end());
    for (size_t i = mid + 1; i < n->children.size(); ++i) {
      right->children.push_back(std::move(n->children[i]));
    }
    n->keys.resize(mid);
    n->children.resize(mid + 1);
    split.right = std::move(right);
    return split;
  }

  bool ScanRangeRec(const Node* n, const Key& lo, const Key& hi,
                    FunctionRef<bool(const Key&, const Value&)> fn) const {
    if (n->leaf) {
      auto it = std::lower_bound(
          n->entries.begin(), n->entries.end(), lo,
          [](const Entry& e, const Key& k) { return e.first < k; });
      for (; it != n->entries.end(); ++it) {
        if (hi < it->first) return true;
        if (!fn(it->first, it->second)) return false;
      }
      return true;
    }
    // First child that can contain key lo: child i holds entries below
    // keys[i], so the scan starts at the first separator whose key is
    // >= lo (entries (lo, *) can sit in that separator's left child, and
    // duplicates of lo may continue through any number of right siblings).
    size_t start = static_cast<size_t>(
        std::lower_bound(n->keys.begin(), n->keys.end(), lo,
                         [](const Entry& e, const Key& k) { return e.first < k; }) -
        n->keys.begin());
    for (size_t i = start; i < n->children.size(); ++i) {
      if (i > 0 && hi < n->keys[i - 1].first) break;
      if (!ScanRangeRec(n->children[i].get(), lo, hi, fn)) return false;
    }
    return true;
  }

  bool ScanAllRec(const Node* n,
                  FunctionRef<bool(const Key&, const Value&)> fn) const {
    if (n->leaf) {
      for (const Entry& e : n->entries) {
        if (!fn(e.first, e.second)) return false;
      }
      return true;
    }
    for (const auto& child : n->children) {
      if (!ScanAllRec(child.get(), fn)) return false;
    }
    return true;
  }

  std::unique_ptr<Node> root_;
  uint64_t size_ = 0;
  uint64_t node_count_ = 0;
  uint64_t leaf_count_ = 0;
  int height_ = 1;
  bool last_insert_new_ = false;
};

}  // namespace gdbmicro

#endif  // GDBMICRO_STORAGE_BTREE_H_
