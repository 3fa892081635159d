package record

import (
	"bytes"
	"testing"
)

// FuzzRecordParse fuzzes the on-flash page parser (the GC's view of a page:
// raw data + OOB bitmap, paper §IV-E). Parse over arbitrary inputs must
// never panic and never read out of bounds; whatever it accepts must be
// internally consistent: records sit where the bitmap says, their values
// are the page's own bytes (decoded in place), decode again from their own
// chunks alone, as a Get reads them, and survive a Marshal/Unmarshal round
// trip.
func FuzzRecordParse(f *testing.F) {
	// Seed with a genuine two-record page at the default geometry.
	p := NewPacker(1024, DefaultChunkSize)
	p.Add(Record{Namespace: 1, Key: 2, Seq: 3, Value: []byte("hi")})
	p.Add(Record{Namespace: 9, Key: 1 << 40, Seq: 77, Value: bytes.Repeat([]byte{0xab}, 200)})
	data, oob := p.Finish()
	f.Add(data, oob, uint8(0))
	f.Add([]byte{}, []byte{}, uint8(1))
	f.Add(make([]byte, 64), []byte{0xff, 0, 0, 0, 0, 0, 0, 0}, uint8(2))

	f.Fuzz(func(t *testing.T, data, oob []byte, chunkSel uint8) {
		chunkSize := 16 << (chunkSel % 4) // 16, 32, 64, 128
		placed, err := Parse(data, oob, chunkSize)
		if err != nil {
			return
		}
		prevEnd := 0
		for _, pl := range placed {
			if pl.StartChunk < prevEnd || pl.NumChunks < 1 {
				t.Fatalf("bad placement: start=%d chunks=%d after end=%d",
					pl.StartChunk, pl.NumChunks, prevEnd)
			}
			prevEnd = pl.StartChunk + pl.NumChunks
			if prevEnd*chunkSize > len(data) {
				t.Fatalf("record extends past page: end chunk %d, page %d bytes", prevEnd, len(data))
			}
			if pl.Record.EncodedSize() > pl.NumChunks*chunkSize {
				t.Fatalf("record of %d bytes reported in %d chunks of %d",
					pl.Record.EncodedSize(), pl.NumChunks, chunkSize)
			}
			if v := pl.Record.Value; len(v) > 0 && &v[0] != &data[pl.StartChunk*chunkSize+HeaderSize] {
				t.Fatalf("record at chunk %d: value is not the page's own bytes", pl.StartChunk)
			}
			// The same record must decode via the Get path: Unmarshal of
			// exactly the chunks the index would name.
			got, err := Unmarshal(data[pl.StartChunk*chunkSize : prevEnd*chunkSize])
			if err != nil {
				t.Fatalf("chunks %d..%d: Unmarshal rejected a record Parse accepted: %v", pl.StartChunk, prevEnd, err)
			}
			if got.Namespace != pl.Record.Namespace || got.Key != pl.Record.Key ||
				got.Seq != pl.Record.Seq || !bytes.Equal(got.Value, pl.Record.Value) {
				t.Fatalf("chunks %d..%d: Unmarshal decoded a different record than Parse", pl.StartChunk, prevEnd)
			}
			// And survive re-encoding.
			round, err := Unmarshal(pl.Record.Marshal(nil))
			if err != nil {
				t.Fatalf("re-unmarshal: %v", err)
			}
			if round.Namespace != pl.Record.Namespace || round.Key != pl.Record.Key ||
				round.Seq != pl.Record.Seq || !bytes.Equal(round.Value, pl.Record.Value) {
				t.Fatal("Marshal/Unmarshal round trip changed the record")
			}
		}
	})
}
