// Package record implements KAML's on-flash record format (paper §IV-B,
// Fig. 4): variable-sized key-value records packed into fixed-sized flash
// pages. A page is divided into fixed-size chunks (64 chunks of 128 B for an
// 8 KB page); each record occupies a whole number of consecutive chunks, the
// first record starts at chunk 0, and records are packed with no gaps. An
// 8-byte bitmap stored in the page's OOB region has bit i set iff chunk i is
// the last chunk of a record, which lets the garbage collector re-parse any
// page without consulting the index.
//
// A page is built once and parsed in place. Packer.Finish hands over the
// page image it built, to be programmed as it is; AppendParsed returns
// records whose values alias the page they were parsed from, into a slice
// the caller reuses. The one value that is copied out is the one a Get
// returns: the firmware reads just the record's chunks, which the index
// names, and decodes them with Unmarshal.
package record

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// HeaderSize is the per-record header: namespace (4 B), key (8 B),
// sequence (8 B), value length (4 B). The sequence number is the record's
// global modification order, assigned when the write is staged in NVRAM;
// crash recovery re-parses the logs and keeps, per key, the version with
// the highest sequence (newest-sequence-wins). GC relocation preserves it,
// so ordering survives any number of moves.
const HeaderSize = 24

// DefaultChunkSize matches the paper: 8192-byte pages / 64 chunks.
const DefaultChunkSize = 128

// Record is one key-value pair as stored on flash.
type Record struct {
	Namespace uint32
	Key       uint64
	Seq       uint64 // global modification order (see HeaderSize)
	Value     []byte
}

// EncodedSize returns the record's size in bytes including the header.
func (r Record) EncodedSize() int { return HeaderSize + len(r.Value) }

// Chunks returns how many chunks of the given size the record occupies.
func (r Record) Chunks(chunkSize int) int {
	return (r.EncodedSize() + chunkSize - 1) / chunkSize
}

// Marshal appends the record's wire form to dst and returns the result.
func (r Record) Marshal(dst []byte) []byte {
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], r.Namespace)
	binary.LittleEndian.PutUint64(hdr[4:12], r.Key)
	binary.LittleEndian.PutUint64(hdr[12:20], r.Seq)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(len(r.Value)))
	dst = append(dst, hdr[:]...)
	return append(dst, r.Value...)
}

// Unmarshal decodes a record that starts at the beginning of b into a
// value of its own: the result does not alias b.
func Unmarshal(b []byte) (Record, error) {
	r, err := decode(b)
	if err != nil {
		return Record{}, err
	}
	r.Value = append([]byte(nil), r.Value...)
	return r, nil
}

// decode decodes a record that starts at the beginning of b in place: the
// result's Value aliases b.
func decode(b []byte) (Record, error) {
	if len(b) < HeaderSize {
		return Record{}, errors.New("record: short header")
	}
	vlen := binary.LittleEndian.Uint32(b[20:24])
	if int(vlen) > len(b)-HeaderSize {
		return Record{}, fmt.Errorf("record: value length %d exceeds buffer %d", vlen, len(b)-HeaderSize)
	}
	end := HeaderSize + int(vlen)
	return Record{
		Namespace: binary.LittleEndian.Uint32(b[0:4]),
		Key:       binary.LittleEndian.Uint64(b[4:12]),
		Seq:       binary.LittleEndian.Uint64(b[12:20]),
		Value:     b[HeaderSize:end:end],
	}, nil
}

// Packer accumulates records into one flash page image.
type Packer struct {
	pageSize  int
	chunkSize int
	chunks    int // total chunks per page
	used      int // chunks consumed so far
	data      []byte
	bitmap    uint64
	count     int
}

// NewPacker returns a packer for pages of pageSize bytes split into
// pageSize/chunkSize chunks. pageSize must be a multiple of chunkSize and
// produce at most 64 chunks (the OOB bitmap is 8 bytes).
func NewPacker(pageSize, chunkSize int) *Packer {
	if chunkSize <= 0 || pageSize%chunkSize != 0 {
		panic(fmt.Sprintf("record: page %d not a multiple of chunk %d", pageSize, chunkSize))
	}
	n := pageSize / chunkSize
	if n > 64 {
		panic(fmt.Sprintf("record: %d chunks exceed 64-bit bitmap", n))
	}
	return &Packer{
		pageSize:  pageSize,
		chunkSize: chunkSize,
		chunks:    n,
		data:      make([]byte, 0, pageSize),
	}
}

// Fits reports whether a record of encodedSize bytes still fits in the page.
func (p *Packer) Fits(encodedSize int) bool {
	need := (encodedSize + p.chunkSize - 1) / p.chunkSize
	return p.used+need <= p.chunks
}

// FreeChunks returns how many chunks remain unused.
func (p *Packer) FreeChunks() int { return p.chunks - p.used }

// Count returns how many records have been added.
func (p *Packer) Count() int { return p.count }

// Empty reports whether no records have been added.
func (p *Packer) Empty() bool { return p.count == 0 }

// Add appends a record and returns the index of its first chunk.
// It panics if the record does not fit; callers must check Fits first.
func (p *Packer) Add(r Record) int {
	size := r.EncodedSize()
	need := (size + p.chunkSize - 1) / p.chunkSize
	if p.used+need > p.chunks {
		panic("record: Add without Fits")
	}
	start := p.used
	p.data = r.Marshal(p.data)
	// Pad to the chunk boundary so the next record starts on a fresh chunk.
	if pad := (start+need)*p.chunkSize - len(p.data); pad > 0 {
		p.data = append(p.data, make([]byte, pad)...)
	}
	p.used += need
	p.bitmap |= 1 << uint(p.used-1) // mark the record's last chunk
	p.count++
	return start
}

// Finish returns the page image (padded to the full page size) and the
// 8-byte OOB bitmap, then resets the packer for the next page. The image is
// the caller's: the packer starts the next page in a buffer of its own, so
// the image can go to flash as it is (flash.ProgramPage keeps it).
func (p *Packer) Finish() (data []byte, oob []byte) {
	data = p.data
	if len(data) < p.pageSize {
		data = append(data, make([]byte, p.pageSize-len(data))...)
	}
	oob = make([]byte, 8)
	binary.LittleEndian.PutUint64(oob, p.bitmap)
	p.data = make([]byte, 0, p.pageSize)
	p.bitmap = 0
	p.used = 0
	p.count = 0
	return data, oob
}

// Placed describes a parsed record and where it sat in the page.
type Placed struct {
	Record     Record
	StartChunk int
	NumChunks  int
}

// Parse decodes a packed page back into its records using the OOB bitmap,
// exactly as the firmware's GC does (paper §IV-E). It is AppendParsed into a
// fresh slice.
func Parse(data, oob []byte, chunkSize int) ([]Placed, error) {
	return AppendParsed(nil, data, oob, chunkSize)
}

// AppendParsed decodes a packed page in place and appends its records to
// dst, a slice the caller owns and may reuse from page to page. Each
// record's Value aliases data — nothing is copied — so it stays valid for as
// long as data does: for a page read from flash, for as long as the caller
// holds the page (see package flash). A caller that keeps a value past that,
// or writes to it, copies it first; relocation copies the live ones when it
// packs them into their new page.
func AppendParsed(dst []Placed, data, oob []byte, chunkSize int) ([]Placed, error) {
	if len(oob) < 8 {
		return dst, errors.New("record: OOB too short for bitmap")
	}
	bitmap := binary.LittleEndian.Uint64(oob[:8])
	chunks := len(data) / chunkSize
	start := 0
	for i := 0; i < chunks && i < 64; i++ {
		if bitmap&(1<<uint(i)) == 0 {
			continue
		}
		lo, hi := start*chunkSize, (i+1)*chunkSize
		if hi > len(data) {
			return dst, fmt.Errorf("record: bitmap points past page (%d > %d)", hi, len(data))
		}
		r, err := decode(data[lo:hi])
		if err != nil {
			return dst, fmt.Errorf("record: chunk %d..%d: %w", start, i, err)
		}
		dst = append(dst, Placed{Record: r, StartChunk: start, NumChunks: i + 1 - start})
		start = i + 1
	}
	return dst, nil
}
