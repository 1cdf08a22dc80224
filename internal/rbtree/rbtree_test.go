package rbtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func key(i int) []byte { return []byte(fmt.Sprintf("%08d", i)) }

func TestEmpty(t *testing.T) {
	tr := New[int]()
	if tr.Len() != 0 {
		t.Fatalf("Len() = %d, want 0", tr.Len())
	}
	if _, ok := tr.Get([]byte("x")); ok {
		t.Fatal("Get on empty tree reported ok")
	}
	if tr.Delete([]byte("x")) {
		t.Fatal("Delete on empty tree reported true")
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetGet(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 1000; i++ {
		if !tr.Set(key(i), i) {
			t.Fatalf("Set(%d) reported replace on first insert", i)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len() = %d, want 1000", tr.Len())
	}
	for i := 0; i < 1000; i++ {
		v, ok := tr.Get(key(i))
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d, %v", i, v, ok)
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSetReplaces(t *testing.T) {
	tr := New[string]()
	tr.Set([]byte("k"), "old")
	if tr.Set([]byte("k"), "new") {
		t.Fatal("second Set of same key reported insert")
	}
	if v, _ := tr.Get([]byte("k")); v != "new" {
		t.Fatalf("Get = %q, want new", v)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len() = %d, want 1", tr.Len())
	}
}

func TestKeyIsCopied(t *testing.T) {
	tr := New[int]()
	k := []byte("abc")
	tr.Set(k, 1)
	k[0] = 'z'
	if _, ok := tr.Get([]byte("abc")); !ok {
		t.Fatal("mutating caller's key buffer corrupted the tree")
	}
}

func TestDelete(t *testing.T) {
	tr := New[int]()
	const n = 500
	for i := 0; i < n; i++ {
		tr.Set(key(i), i)
	}
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for idx, i := range perm {
		if !tr.Delete(key(i)) {
			t.Fatalf("Delete(%d) reported missing", i)
		}
		if tr.Delete(key(i)) {
			t.Fatalf("second Delete(%d) reported present", i)
		}
		if tr.Len() != n-idx-1 {
			t.Fatalf("Len() = %d after %d deletes", tr.Len(), idx+1)
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatalf("after deleting %d: %v", i, err)
		}
	}
}

func TestAscendOrder(t *testing.T) {
	tr := New[int]()
	r := rand.New(rand.NewSource(7))
	for _, i := range r.Perm(300) {
		tr.Set(key(i), i)
	}
	var got []int
	tr.Ascend(func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 300 {
		t.Fatalf("visited %d keys, want 300", len(got))
	}
	if !sort.IntsAreSorted(got) {
		t.Fatal("Ascend did not visit keys in order")
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 100; i++ {
		tr.Set(key(i), i)
	}
	count := 0
	tr.Ascend(func(k []byte, v int) bool {
		count++
		return count < 10
	})
	if count != 10 {
		t.Fatalf("visited %d keys after early stop, want 10", count)
	}
}

func TestAscendRange(t *testing.T) {
	tr := New[int]()
	for i := 0; i < 100; i++ {
		tr.Set(key(i), i)
	}
	var got []int
	tr.AscendRange(key(20), key(30), func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 10 || got[0] != 20 || got[9] != 29 {
		t.Fatalf("AscendRange[20,30) = %v", got)
	}
	got = nil
	tr.AscendRange(nil, key(3), func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 3 {
		t.Fatalf("AscendRange[nil,3) = %v", got)
	}
	got = nil
	tr.AscendRange(key(97), nil, func(k []byte, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 3 {
		t.Fatalf("AscendRange[97,nil) = %v", got)
	}
}

// TestAgainstMap drives the tree against a reference Go map with a random
// operation mix and checks full agreement plus RB invariants.
func TestAgainstMap(t *testing.T) {
	tr := New[int]()
	ref := map[string]int{}
	r := rand.New(rand.NewSource(1234))
	for op := 0; op < 20000; op++ {
		k := key(r.Intn(400))
		switch r.Intn(3) {
		case 0:
			v := r.Int()
			tr.Set(k, v)
			ref[string(k)] = v
		case 1:
			_, wantOK := ref[string(k)]
			if tr.Delete(k) != wantOK {
				t.Fatalf("op %d: Delete(%q) disagrees with reference", op, k)
			}
			delete(ref, string(k))
		case 2:
			v, ok := tr.Get(k)
			wantV, wantOK := ref[string(k)]
			if ok != wantOK || (ok && v != wantV) {
				t.Fatalf("op %d: Get(%q) = %d,%v want %d,%v", op, k, v, ok, wantV, wantOK)
			}
		}
		if op%500 == 0 {
			if err := tr.checkInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			if tr.Len() != len(ref) {
				t.Fatalf("op %d: Len %d, want %d", op, tr.Len(), len(ref))
			}
		}
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: inserting any set of keys yields a tree that contains exactly
// those keys, in sorted order, with invariants intact.
func TestQuickInsertContains(t *testing.T) {
	f := func(keys [][]byte) bool {
		tr := New[bool]()
		uniq := map[string]bool{}
		for _, k := range keys {
			tr.Set(k, true)
			uniq[string(k)] = true
		}
		if tr.Len() != len(uniq) {
			return false
		}
		if err := tr.checkInvariants(); err != nil {
			return false
		}
		var prev []byte
		ordered := true
		first := true
		tr.Ascend(func(k []byte, _ bool) bool {
			if !first && bytes.Compare(prev, k) >= 0 {
				ordered = false
				return false
			}
			prev = append(prev[:0], k...)
			first = false
			return true
		})
		return ordered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: delete of a previously inserted key always succeeds and removes
// exactly that key.
func TestQuickInsertDelete(t *testing.T) {
	f := func(keys [][]byte, delIdx uint) bool {
		if len(keys) == 0 {
			return true
		}
		tr := New[int]()
		for i, k := range keys {
			tr.Set(k, i)
		}
		k := keys[delIdx%uint(len(keys))]
		if !tr.Delete(k) {
			return false
		}
		if _, ok := tr.Get(k); ok {
			return false
		}
		return tr.checkInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSet(b *testing.B) {
	tr := New[int]()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Set(key(i%100000), i)
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New[int]()
	for i := 0; i < 100000; i++ {
		tr.Set(key(i), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(key(i % 100000))
	}
}

// checkInvariants verifies the red–black invariants: a black root, keys in
// order, no right-leaning or doubled red link, equal black heights and
// fresh subtree sizes.
func (t *Tree[V]) checkInvariants() error {
	if isRed(t.root) {
		return errRootRed
	}
	_, err := check(t.root, nil, nil)
	return err
}

var (
	errRootRed   = treeError("root is red")
	errOrder     = treeError("keys out of order")
	errRedRight  = treeError("right-leaning red link")
	errDoubleRed = treeError("two red links in a row")
	errBlackBal  = treeError("unbalanced black height")
	errSize      = treeError("stale subtree size")
)

type treeError string

func (e treeError) Error() string { return "rbtree: " + string(e) }

// check returns the black height of the subtree.
func check[V any](n *node[V], lo, hi []byte) (int, error) {
	if n == nil {
		return 0, nil
	}
	if lo != nil && bytes.Compare(n.key, lo) <= 0 {
		return 0, errOrder
	}
	if hi != nil && bytes.Compare(n.key, hi) >= 0 {
		return 0, errOrder
	}
	if isRed(n.right) {
		return 0, errRedRight
	}
	if isRed(n) && isRed(n.left) {
		return 0, errDoubleRed
	}
	if n.size != 1+n.left.subtreeSize()+n.right.subtreeSize() {
		return 0, errSize
	}
	lh, err := check(n.left, lo, n.key)
	if err != nil {
		return 0, err
	}
	rh, err := check(n.right, n.key, hi)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errBlackBal
	}
	if !isRed(n) {
		lh++
	}
	return lh, nil
}
