package record

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/sim"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	f := func(ns uint32, key, seq uint64, val []byte) bool {
		r := Record{Namespace: ns, Key: key, Seq: seq, Value: val}
		b := r.Marshal(nil)
		got, err := Unmarshal(b)
		if err != nil {
			return false
		}
		return got.Namespace == ns && got.Key == key && got.Seq == seq && bytes.Equal(got.Value, val)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalShort(t *testing.T) {
	if _, err := Unmarshal(make([]byte, HeaderSize-1)); err == nil {
		t.Fatal("short header accepted")
	}
	r := Record{Value: make([]byte, 100)}
	b := r.Marshal(nil)
	if _, err := Unmarshal(b[:HeaderSize+50]); err == nil {
		t.Fatal("truncated value accepted")
	}
}

func TestChunksRounding(t *testing.T) {
	cases := []struct {
		valueLen, chunks int
	}{
		{0, 1},                // header alone fits one chunk
		{128 - HeaderSize, 1}, // exactly one chunk
		{128 - HeaderSize + 1, 2},
		{512, (512 + HeaderSize + 127) / 128},
	}
	for _, c := range cases {
		r := Record{Value: make([]byte, c.valueLen)}
		if got := r.Chunks(128); got != c.chunks {
			t.Errorf("valueLen=%d chunks=%d want %d", c.valueLen, got, c.chunks)
		}
	}
}

func TestPackerSingleRecord(t *testing.T) {
	p := NewPacker(8192, 128)
	r := Record{Namespace: 1, Key: 42, Value: []byte("hello")}
	start := p.Add(r)
	if start != 0 {
		t.Fatalf("start=%d", start)
	}
	data, oob := p.Finish()
	if len(data) != 8192 {
		t.Fatalf("page len %d", len(data))
	}
	placed, err := Parse(data, oob, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 1 || placed[0].Record.Key != 42 || string(placed[0].Record.Value) != "hello" {
		t.Fatalf("placed=%+v", placed)
	}
}

func TestPackerPaperFigure4(t *testing.T) {
	// Paper Fig. 4: record A occupies chunks 0-1 of P0, record B chunks 2-4,
	// record C starts a new page at chunk 0.
	p := NewPacker(8192, 128)
	a := Record{Key: 1, Value: make([]byte, 2*128-HeaderSize)} // 2 chunks
	b := Record{Key: 2, Value: make([]byte, 3*128-HeaderSize)} // 3 chunks
	if s := p.Add(a); s != 0 {
		t.Fatalf("A start=%d", s)
	}
	if s := p.Add(b); s != 2 {
		t.Fatalf("B start=%d", s)
	}
	data, oob := p.Finish()
	placed, err := Parse(data, oob, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(placed) != 2 {
		t.Fatalf("%d records", len(placed))
	}
	if placed[0].StartChunk != 0 || placed[0].NumChunks != 2 {
		t.Errorf("A: %+v", placed[0])
	}
	if placed[1].StartChunk != 2 || placed[1].NumChunks != 3 {
		t.Errorf("B: %+v", placed[1])
	}
	// Bitmap bits 1 and 4 set, matching "00..010010" in the figure.
	if oob[0] != 0b00010010 {
		t.Errorf("bitmap byte 0 = %08b", oob[0])
	}
}

func TestPackerFitsBoundary(t *testing.T) {
	p := NewPacker(1024, 128) // 8 chunks
	big := Record{Value: make([]byte, 8*128-HeaderSize)}
	if !p.Fits(big.EncodedSize()) {
		t.Fatal("exact-fit record rejected")
	}
	p.Add(big)
	if p.Fits(1) {
		t.Fatal("full page accepts more")
	}
	if p.FreeChunks() != 0 {
		t.Fatalf("free=%d", p.FreeChunks())
	}
}

func TestPackerResetAfterFinish(t *testing.T) {
	p := NewPacker(1024, 128)
	p.Add(Record{Key: 1, Value: []byte("x")})
	p.Finish()
	if !p.Empty() || p.FreeChunks() != 8 {
		t.Fatal("packer not reset")
	}
	start := p.Add(Record{Key: 2, Value: []byte("y")})
	if start != 0 {
		t.Fatalf("start=%d after reset", start)
	}
}

// A Get reads only the chunks the index names and decodes them with
// Unmarshal: a record's own chunks, cut out of the page, hold all of it.
func TestUnmarshalOfChunksMatchesParse(t *testing.T) {
	p := NewPacker(8192, 128)
	var starts []int
	var recs []Record
	rng := rand.New(rand.NewSource(7))
	for i := 0; ; i++ {
		val := make([]byte, rng.Intn(700))
		rng.Read(val)
		r := Record{Namespace: uint32(i % 3), Key: uint64(i), Value: val}
		if !p.Fits(r.EncodedSize()) {
			break
		}
		starts = append(starts, p.Add(r))
		recs = append(recs, r)
	}
	data, _ := p.Finish()
	for i, s := range starts {
		got, err := Unmarshal(data[s*128 : (s+recs[i].Chunks(128))*128])
		if err != nil {
			t.Fatal(err)
		}
		if got.Key != recs[i].Key || !bytes.Equal(got.Value, recs[i].Value) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestQuickPackParseRoundTrip(t *testing.T) {
	// Property: any sequence of records packed into pages parses back
	// exactly, in order, from (data, oob) alone.
	f := func(sizes []uint16, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewPacker(8192, 128)
		var want []Record
		for i, sz := range sizes {
			val := make([]byte, int(sz)%4000)
			rng.Read(val)
			r := Record{Namespace: uint32(i), Key: rng.Uint64(), Value: val}
			if !p.Fits(r.EncodedSize()) {
				break
			}
			p.Add(r)
			want = append(want, r)
		}
		data, oob := p.Finish()
		placed, err := Parse(data, oob, 128)
		if err != nil || len(placed) != len(want) {
			return false
		}
		for i := range want {
			g := placed[i].Record
			if g.Namespace != want[i].Namespace || g.Key != want[i].Key || !bytes.Equal(g.Value, want[i].Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestParseBadOOB(t *testing.T) {
	if _, err := Parse(make([]byte, 1024), []byte{1, 2}, 128); err == nil {
		t.Fatal("short OOB accepted")
	}
}

// AppendParsed decodes in place into the caller's slice: each value is a
// capacity-capped window of the page (appending to one cannot overwrite the
// next record), the slice's earlier entries stay, and a slice with room
// takes a page's records with no allocation at all.
func TestAppendParsedDecodesInPlace(t *testing.T) {
	p := NewPacker(1024, 128)
	p.Add(Record{Key: 1, Value: []byte("first")})
	p.Add(Record{Key: 2, Value: []byte("second")})
	data, oob := p.Finish()
	dst := make([]Placed, 1, 8)
	dst[0].StartChunk = -1
	placed, err := AppendParsed(dst, data, oob, 128)
	if err != nil || len(placed) != 3 || placed[0].StartChunk != -1 {
		t.Fatalf("AppendParsed = %d entries, %v; want the caller's entry and two records", len(placed), err)
	}
	for _, pl := range placed[1:] {
		v := pl.Record.Value
		if &v[0] != &data[pl.StartChunk*128+HeaderSize] || cap(v) != len(v) {
			t.Errorf("key %d: value is not a capped window of the page", pl.Record.Key)
		}
	}
	_ = append(placed[1].Record.Value, "!!!"...)
	if got, _ := Unmarshal(data[placed[2].StartChunk*128:]); string(got.Value) != "second" {
		t.Errorf("appending to a parsed value overwrote the next record: %q", got.Value)
	}
	scratch := make([]Placed, 0, 8)
	if n := testing.AllocsPerRun(100, func() { scratch, _ = AppendParsed(scratch[:0], data, oob, 128) }); n != 0 {
		t.Errorf("AppendParsed into a slice with room allocates %.1f times", n)
	}
}

// Finish hands its page over: the packer builds the next page in a buffer of
// its own, so a page already handed to flash never changes.
func TestFinishHandsOverThePage(t *testing.T) {
	p := NewPacker(1024, 128)
	p.Add(Record{Key: 1, Value: []byte("kept")})
	data, _ := p.Finish()
	before := bytes.Clone(data)
	p.Add(Record{Key: 2, Value: []byte("next page")})
	p.Finish()
	if !bytes.Equal(data, before) {
		t.Fatal("building the next page changed the one Finish returned")
	}
}

// The values AppendParsed returns alias the flash page they were parsed
// from, and stay readable after the page's block is erased and reprogrammed:
// an erase drops the array's buffers, it never zeroes them.
func TestParsedValuesSurviveErase(t *testing.T) {
	fc := flash.DefaultConfig()
	e := sim.NewEngine()
	arr := flash.New(e, fc)
	e.Go("test", func() {
		p := NewPacker(fc.PageSize, DefaultChunkSize)
		want := bytes.Repeat([]byte{0xc3}, 700)
		p.Add(Record{Namespace: 1, Key: 7, Seq: 9, Value: want})
		page, oob := p.Finish()
		if err := arr.ProgramPage(0, page, oob); err != nil {
			t.Fatal(err)
		}
		data, rOOB, err := arr.ReadPage(0)
		if err != nil {
			t.Fatal(err)
		}
		placed, err := AppendParsed(nil, data, rOOB, DefaultChunkSize)
		if err != nil || len(placed) != 1 {
			t.Fatalf("parse: %d records, %v", len(placed), err)
		}
		if err := arr.EraseBlock(0); err != nil {
			t.Fatal(err)
		}
		if err := arr.ProgramPage(0, bytes.Repeat([]byte{0xff}, fc.PageSize), nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(placed[0].Record.Value, want) {
			t.Error("a parsed value changed when its block was erased and reprogrammed")
		}
	})
	e.Wait()
}
