package heapfile

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// pageSize is the Shore-MT baseline's page (blockdev.PageSize).
const pageSize = 8192

func newPage() []byte {
	buf := make([]byte, pageSize)
	Init(buf)
	return buf
}

func TestRIDPackRoundTrip(t *testing.T) {
	f := func(page uint32, slot uint16) bool {
		r := RID{Page: page & 0xFFFFFFF, Slot: slot}
		return UnpackRID(r.Pack()) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestInsertRead(t *testing.T) {
	p := newPage()
	s1, err := Insert(p, []byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Insert(p, []byte("beta"))
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 {
		t.Fatal("duplicate slots")
	}
	v1, _ := Read(p, s1)
	v2, _ := Read(p, s2)
	if string(v1) != "alpha" || string(v2) != "beta" {
		t.Fatalf("%q %q", v1, v2)
	}
}

func TestUpdateInPlaceAndGrow(t *testing.T) {
	p := newPage()
	s, _ := Insert(p, bytes.Repeat([]byte{1}, 100))
	if err := Update(p, s, bytes.Repeat([]byte{2}, 50)); err != nil {
		t.Fatal(err)
	}
	v, _ := Read(p, s)
	if len(v) != 50 || v[0] != 2 {
		t.Fatalf("shrink: %d bytes", len(v))
	}
	if err := Update(p, s, bytes.Repeat([]byte{3}, 500)); err != nil {
		t.Fatal(err)
	}
	v, _ = Read(p, s)
	if len(v) != 500 || v[0] != 3 {
		t.Fatalf("grow: %d bytes", len(v))
	}
}

func TestDeleteAndSlotReuse(t *testing.T) {
	p := newPage()
	s1, _ := Insert(p, []byte("one"))
	s2, _ := Insert(p, []byte("two"))
	if err := Delete(p, s1); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(p, s1); !errors.Is(err, ErrDeadSlot) {
		t.Fatalf("read dead: %v", err)
	}
	if err := Delete(p, s1); !errors.Is(err, ErrDeadSlot) {
		t.Fatalf("double delete: %v", err)
	}
	s3, _ := Insert(p, []byte("three"))
	if s3 != s1 {
		t.Fatalf("dead slot not reused: got %d want %d", s3, s1)
	}
	v, _ := Read(p, s2)
	if string(v) != "two" {
		t.Fatal("neighbor damaged")
	}
}

func TestPageFillsAndCompacts(t *testing.T) {
	p := newPage()
	var slots []uint16
	rec := bytes.Repeat([]byte{7}, 200)
	for {
		s, err := Insert(p, rec)
		if err != nil {
			if !errors.Is(err, ErrNoSpace) {
				t.Fatal(err)
			}
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 30 {
		t.Fatalf("only %d records fit", len(slots))
	}
	// Delete half, compaction should admit more.
	for i := 0; i < len(slots); i += 2 {
		Delete(p, slots[i])
	}
	added := 0
	for {
		if _, err := Insert(p, rec); err != nil {
			break
		}
		added++
	}
	if added < len(slots)/2-1 {
		t.Fatalf("compaction reclaimed too little: %d", added)
	}
	// Survivors intact.
	for i := 1; i < len(slots); i += 2 {
		v, err := Read(p, slots[i])
		if err != nil || !bytes.Equal(v, rec) {
			t.Fatalf("survivor %d: %v", slots[i], err)
		}
	}
}

func TestTooLargeRejected(t *testing.T) {
	p := newPage()
	if _, err := Insert(p, make([]byte, pageSize)); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err=%v", err)
	}
}

func TestBadSlot(t *testing.T) {
	p := newPage()
	if _, err := Read(p, 9); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("err=%v", err)
	}
	if err := Update(p, 9, []byte("x")); !errors.Is(err, ErrBadSlot) {
		t.Fatalf("err=%v", err)
	}
}

func TestPageLSN(t *testing.T) {
	p := newPage()
	SetPageLSN(p, 12345)
	Insert(p, []byte("data"))
	if PageLSN(p) != 12345 {
		t.Fatalf("lsn=%d", PageLSN(p))
	}
}

func TestRecordsIteration(t *testing.T) {
	p := newPage()
	s1, _ := Insert(p, []byte("a"))
	Insert(p, []byte("b"))
	Delete(p, s1)
	var seen []string
	Records(p, func(slot uint16, data []byte) bool {
		seen = append(seen, string(data))
		return true
	})
	if len(seen) != 1 || seen[0] != "b" {
		t.Fatalf("seen=%v", seen)
	}
}

func TestQuickModelCheck(t *testing.T) {
	type op struct {
		Kind uint8
		Idx  uint8
		Size uint16
	}
	f := func(ops []op, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newPage()
		type rec struct {
			slot uint16
			data []byte
		}
		var live []rec
		for _, o := range ops {
			switch o.Kind % 3 {
			case 0: // insert
				data := make([]byte, int(o.Size)%600+1)
				rng.Read(data)
				s, err := Insert(p, data)
				if err != nil {
					continue
				}
				live = append(live, rec{slot: s, data: data})
			case 1: // update
				if len(live) == 0 {
					continue
				}
				i := int(o.Idx) % len(live)
				data := make([]byte, int(o.Size)%600+1)
				rng.Read(data)
				if err := Update(p, live[i].slot, data); err != nil {
					continue
				}
				live[i].data = data
			case 2: // delete
				if len(live) == 0 {
					continue
				}
				i := int(o.Idx) % len(live)
				if err := Delete(p, live[i].slot); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			// Model equivalence after every step.
			for _, r := range live {
				v, err := Read(p, r.slot)
				if err != nil || !bytes.Equal(v, r.data) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
