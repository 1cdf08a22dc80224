// Package rbtree implements a left-leaning red–black tree keyed by byte
// slices. It is the ordered-map substrate for the GODIVA record index, which
// the paper implements with the C++ STL map (an RB-tree keyed on the key
// field values).
//
// The tree stores opaque values of type V against []byte keys compared with
// bytes.Compare. Keys are copied on insert, so callers may reuse their key
// buffers. Iteration is in ascending key order.
package rbtree

import "bytes"

const (
	red   = true
	black = false
)

type node[V any] struct {
	key         []byte
	value       V
	left, right *node[V]
	color       bool
	size        int // nodes in subtree rooted here
}

// Tree is an ordered map from []byte keys to values of type V.
// The zero value is an empty tree ready for use. Tree is not safe for
// concurrent use; callers synchronize externally (the GODIVA database holds
// its own lock around index operations).
type Tree[V any] struct {
	root *node[V]
}

// New returns an empty tree. Equivalent to new(Tree[V]).
func New[V any]() *Tree[V] { return &Tree[V]{} }

// Len reports the number of keys stored in the tree.
func (t *Tree[V]) Len() int { return t.root.subtreeSize() }

func (n *node[V]) subtreeSize() int {
	if n == nil {
		return 0
	}
	return n.size
}

func isRed[V any](n *node[V]) bool { return n != nil && n.color == red }

func rotateLeft[V any](h *node[V]) *node[V] {
	x := h.right
	h.right = x.left
	x.left = h
	x.color = h.color
	h.color = red
	x.size = h.size
	h.size = 1 + h.left.subtreeSize() + h.right.subtreeSize()
	return x
}

func rotateRight[V any](h *node[V]) *node[V] {
	x := h.left
	h.left = x.right
	x.right = h
	x.color = h.color
	h.color = red
	x.size = h.size
	h.size = 1 + h.left.subtreeSize() + h.right.subtreeSize()
	return x
}

func flipColors[V any](h *node[V]) {
	h.color = !h.color
	h.left.color = !h.left.color
	h.right.color = !h.right.color
}

// Set inserts or replaces the value stored under key.
// It reports whether the key was newly inserted (false means replaced).
func (t *Tree[V]) Set(key []byte, value V) bool {
	var inserted bool
	t.root, inserted = insert(t.root, key, value)
	t.root.color = black
	return inserted
}

func insert[V any](h *node[V], key []byte, value V) (*node[V], bool) {
	if h == nil {
		k := make([]byte, len(key))
		copy(k, key)
		return &node[V]{key: k, value: value, color: red, size: 1}, true
	}
	var inserted bool
	switch cmp := bytes.Compare(key, h.key); {
	case cmp < 0:
		h.left, inserted = insert(h.left, key, value)
	case cmp > 0:
		h.right, inserted = insert(h.right, key, value)
	default:
		h.value = value
	}
	h = fixUp(h)
	return h, inserted
}

func fixUp[V any](h *node[V]) *node[V] {
	if isRed(h.right) && !isRed(h.left) {
		h = rotateLeft(h)
	}
	if isRed(h.left) && isRed(h.left.left) {
		h = rotateRight(h)
	}
	if isRed(h.left) && isRed(h.right) {
		flipColors(h)
	}
	h.size = 1 + h.left.subtreeSize() + h.right.subtreeSize()
	return h
}

// Get returns the value stored under key and whether it was present.
func (t *Tree[V]) Get(key []byte) (V, bool) {
	n := t.root
	for n != nil {
		switch cmp := bytes.Compare(key, n.key); {
		case cmp < 0:
			n = n.left
		case cmp > 0:
			n = n.right
		default:
			return n.value, true
		}
	}
	var zero V
	return zero, false
}

func moveRedLeft[V any](h *node[V]) *node[V] {
	flipColors(h)
	if isRed(h.right.left) {
		h.right = rotateRight(h.right)
		h = rotateLeft(h)
		flipColors(h)
	}
	return h
}

func moveRedRight[V any](h *node[V]) *node[V] {
	flipColors(h)
	if isRed(h.left.left) {
		h = rotateRight(h)
		flipColors(h)
	}
	return h
}

func deleteMin[V any](h *node[V]) *node[V] {
	if h.left == nil {
		return nil
	}
	if !isRed(h.left) && !isRed(h.left.left) {
		h = moveRedLeft(h)
	}
	h.left = deleteMin(h.left)
	return fixUp(h)
}

func minNode[V any](h *node[V]) *node[V] {
	for h.left != nil {
		h = h.left
	}
	return h
}

// Delete removes key from the tree and reports whether it was present.
func (t *Tree[V]) Delete(key []byte) bool {
	if _, ok := t.Get(key); !ok {
		return false
	}
	if !isRed(t.root.left) && !isRed(t.root.right) {
		t.root.color = red
	}
	t.root = deleteNode(t.root, key)
	if t.root != nil {
		t.root.color = black
	}
	return true
}

func deleteNode[V any](h *node[V], key []byte) *node[V] {
	if bytes.Compare(key, h.key) < 0 {
		if !isRed(h.left) && !isRed(h.left.left) {
			h = moveRedLeft(h)
		}
		h.left = deleteNode(h.left, key)
	} else {
		if isRed(h.left) {
			h = rotateRight(h)
		}
		if bytes.Equal(key, h.key) && h.right == nil {
			return nil
		}
		if !isRed(h.right) && !isRed(h.right.left) {
			h = moveRedRight(h)
		}
		if bytes.Equal(key, h.key) {
			m := minNode(h.right)
			h.key, h.value = m.key, m.value
			h.right = deleteMin(h.right)
		} else {
			h.right = deleteNode(h.right, key)
		}
	}
	return fixUp(h)
}

// Ascend calls fn for each key/value pair in ascending key order until fn
// returns false. The key slice passed to fn is owned by the tree and must
// not be modified or retained.
func (t *Tree[V]) Ascend(fn func(key []byte, value V) bool) {
	ascend(t.root, fn)
}

func ascend[V any](n *node[V], fn func([]byte, V) bool) bool {
	if n == nil {
		return true
	}
	if !ascend(n.left, fn) {
		return false
	}
	if !fn(n.key, n.value) {
		return false
	}
	return ascend(n.right, fn)
}

// AscendRange calls fn for each pair with lo <= key < hi in ascending order,
// stopping early if fn returns false. A nil lo means "from the start"; a nil
// hi means "to the end".
func (t *Tree[V]) AscendRange(lo, hi []byte, fn func(key []byte, value V) bool) {
	ascendRange(t.root, lo, hi, fn)
}

func ascendRange[V any](n *node[V], lo, hi []byte, fn func([]byte, V) bool) bool {
	if n == nil {
		return true
	}
	if lo != nil && bytes.Compare(n.key, lo) < 0 {
		return ascendRange(n.right, lo, hi, fn)
	}
	if hi != nil && bytes.Compare(n.key, hi) >= 0 {
		return ascendRange(n.left, lo, hi, fn)
	}
	if !ascendRange(n.left, lo, hi, fn) {
		return false
	}
	if !fn(n.key, n.value) {
		return false
	}
	return ascendRange(n.right, lo, hi, fn)
}
