package core

import (
	"errors"
	"testing"

	"godiva/internal/zerocopy"
)

// freeListBytes reads the free list's total under the lock.
func freeListBytes(db *DB) int64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.freeBytes
}

// readPayload reads unit name inline with one blob record whose payload of
// size bytes fill writes, and returns the payload buffer. check, when set,
// sees the freshly allocated payload before fill does.
func readPayload(t *testing.T, db *DB, name string, size int, check func(*Buffer), fill byte) *Buffer {
	t.Helper()
	var buf *Buffer
	err := db.ReadUnit(name, func(u *Unit) error {
		r, err := u.NewRecord("blob")
		if err != nil {
			return err
		}
		if err := r.SetString("name", u.Name()); err != nil {
			return err
		}
		if buf, err = r.AllocFieldBuffer("payload", size); err != nil {
			return err
		}
		if check != nil {
			check(buf)
		}
		raw, _ := buf.Bytes()
		for i := range raw {
			raw[i] = fill
		}
		return u.DB().CommitRecord(r)
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// A buffer on reused memory comes back zeroed, whatever the unit before it
// left there — the contract of a fresh allocation.
func TestReusedBufferComesBackZeroed(t *testing.T) {
	db := newTestDB(t, Options{MemoryLimit: 1 << 20})
	defineBlobSchema(t, db)
	first := readPayload(t, db, "a", 4096, nil, 0xAB)
	firstRaw, _ := first.Bytes()
	if err := db.DeleteUnit("a"); err != nil {
		t.Fatal(err)
	}
	if n := freeListBytes(db); n != 4096+16 {
		t.Fatalf("free list holds %d bytes after the delete, want the payload and key (%d)", n, 4096+16)
	}
	var reused bool
	readPayload(t, db, "b", 4096, func(b *Buffer) {
		raw, _ := b.Bytes()
		reused = &raw[0] == &firstRaw[0]
		for i, c := range raw {
			if c != 0 {
				t.Errorf("reused payload byte %d = %#x, want 0", i, c)
				return
			}
		}
	}, 1)
	if !reused {
		t.Fatal("the second unit's payload is not on the first unit's memory")
	}
	if n := freeListBytes(db); n != 0 {
		t.Fatalf("free list holds %d bytes after its memory was reused, want 0", n)
	}
	if err := db.FinishUnit("b"); err != nil {
		t.Fatal(err)
	}
}

// Borrowed memory is the donor's: dropping its unit gives it to nobody, so
// the donor's bytes stay what the donor wrote while later units commit
// buffers of the same type and size.
func TestBorrowedBufferNeverReused(t *testing.T) {
	if !zerocopy.LittleEndian {
		t.Skip("aliasing requires a little-endian host")
	}
	db := newTestDB(t, Options{MemoryLimit: 1 << 20})
	defineFluidSchema(t, db)
	donor := make([]float64, 512)
	for i := range donor {
		donor[i] = float64(i) + 0.5
	}
	donated, _ := zerocopy.Bytes(donor)
	commit := func(unit string, borrow bool) {
		t.Helper()
		err := db.ReadUnit(unit, func(u *Unit) error {
			r, err := u.NewRecord("fluid")
			if err != nil {
				return err
			}
			if err := r.SetString("block id", "b1"); err != nil {
				return err
			}
			if err := r.SetString("time-step id", unit); err != nil {
				return err
			}
			if borrow {
				b, err := r.BorrowFieldBuffer("x coordinates", donated)
				if err != nil {
					return err
				}
				if !b.Borrowed() {
					t.Error("aligned donation was copied, not borrowed")
				}
				return u.DB().CommitRecord(r)
			}
			b, err := r.AllocFieldBuffer("x coordinates", len(donated))
			if err != nil {
				return err
			}
			xs, _ := b.Float64s()
			for i := range xs {
				xs[i] = -1
			}
			return u.DB().CommitRecord(r)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.DeleteUnit(unit); err != nil {
			t.Fatal(err)
		}
	}
	commit("lender", true)
	for _, unit := range []string{"s1", "s2", "s3"} {
		commit(unit, false)
	}
	for i, x := range donor {
		if x != float64(i)+0.5 {
			t.Fatalf("donor[%d] = %v after later units committed, want %v", i, x, float64(i)+0.5)
		}
	}
}

// Lowering the limit trims the free list to what the new limit leaves room
// for beside the charge, and a reservation trims it before it evicts.
func TestSetMemSpaceTrimsFreeList(t *testing.T) {
	const payload = 8 << 10
	db := newTestDB(t, Options{MemoryLimit: 64 << 10})
	defineBlobSchema(t, db)
	for _, name := range []string{"a", "b", "c"} {
		readPayload(t, db, name, payload, nil, 1)
	}
	for _, name := range []string{"a", "b"} {
		if err := db.DeleteUnit(name); err != nil {
			t.Fatal(err)
		}
	}
	if n := freeListBytes(db); n < 2*payload {
		t.Fatalf("free list holds %d bytes after two deletes, want at least %d", n, 2*payload)
	}
	limit := db.MemUsed() + payload + payload/2
	db.SetMemSpace(limit)
	audit(db, "test")
	if used, free := db.MemUsed(), freeListBytes(db); used+free > limit || free >= 2*payload {
		t.Fatalf("after SetMemSpace(%d): charge %d + free list %d; want the list trimmed to fit", limit, used, free)
	}
	if _, ok := db.UnitState("c"); !ok {
		t.Fatal("SetMemSpace evicted the pinned unit")
	}
	// A payload of another size finds no memory to reuse; its reservation
	// must trim the list rather than exceed the limit.
	readPayload(t, db, "d", payload+payload/4, nil, 2)
	audit(db, "test")
	if used, free := db.MemUsed(), freeListBytes(db); used+free > limit {
		t.Fatalf("after a reservation: charge %d + free list %d exceeds the limit %d", used, free, limit)
	}
	// A pinned charge over a lowered limit leaves no room: what the next
	// drop frees goes to the collector, not to the list.
	db.SetMemSpace(1)
	if err := db.DeleteUnit("c"); err != nil {
		t.Fatal(err)
	}
	audit(db, "test")
	if n := freeListBytes(db); n != 0 {
		t.Fatalf("free list holds %d bytes while the charge exceeds the limit", n)
	}
	if err := db.FinishUnit("d"); err != nil {
		t.Fatal(err)
	}
}

// Close sweeping an inline read unlinks the read's records but leaves their
// buffers to the still-running read function, and a closed database keeps
// no memory: nothing of that read, nor of any other unit, goes to the free
// list, before or after the read function returns.
func TestCloseMidReadReusesNothing(t *testing.T) {
	db := Open(Options{MemoryLimit: 1 << 20})
	defineBlobSchema(t, db)
	if err := db.ReadUnit("cached", blobReader(4096, nil)); err != nil {
		t.Fatal(err)
	}
	if err := db.FinishUnit("cached"); err != nil {
		t.Fatal(err)
	}
	started, swept := make(chan struct{}), make(chan struct{})
	errc := make(chan error, 1)
	var payload []byte
	go func() {
		errc <- db.ReadUnit("reading", func(u *Unit) error {
			r, err := u.NewRecord("blob")
			if err != nil {
				return err
			}
			buf, err := r.AllocFieldBuffer("payload", 4096)
			if err != nil {
				return err
			}
			payload, _ = buf.Bytes()
			close(started)
			<-swept
			for i := range payload {
				payload[i] = 7
			}
			return nil
		})
	}()
	<-started
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if n := freeListBytes(db); n != 0 {
		t.Fatalf("Close left %d bytes on the free list", n)
	}
	close(swept)
	if err := <-errc; !errors.Is(err, ErrClosed) {
		t.Fatalf("ReadUnit swept by Close = %v, want ErrClosed", err)
	}
	db.mu.Lock()
	n, keys := db.freeBytes, len(db.free)
	db.mu.Unlock()
	if n != 0 || keys != 0 {
		t.Fatalf("the swept read's return left %d bytes in %d lists on the free list", n, keys)
	}
	for i, c := range payload {
		if c != 7 {
			t.Fatalf("payload[%d] = %d after the read function wrote 7", i, c)
		}
	}
	audit(db, "closed")
}
