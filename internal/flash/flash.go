// Package flash simulates a NAND flash array like the one on the SSD
// prototyping board used by the KAML paper (HPCA 2017): multiple channels,
// several chips per channel, erase blocks of sequentially-programmed pages,
// and a per-page out-of-band (OOB) region.
//
// The simulator enforces real NAND semantics — pages are immutable once
// programmed, pages within a block must be programmed in order, a block must
// be erased before reuse, and each block endures a bounded number of erases —
// and charges realistic virtual time for every operation: chips serve one
// read/program/erase at a time, and all chips on a channel share that
// channel's data bus for transfers.
//
// # Page ownership
//
// A page's bytes are copied at most once on their way through the array,
// and usually not at all. ProgramPage keeps the buffers it is handed — the
// caller gives them up on success — and ReadPage returns those very buffers
// (ReadRange a view into one).
// Both sides therefore treat a programmed page as immutable, which is what
// NAND guarantees anyway: nothing changes a page between its program and
// its block's erase, and an erase drops the page's buffers instead of
// zeroing them, so a slice somebody still holds keeps reading the old
// contents. A controller that re-parses a page in place (a collector's
// victim scan) may hand out slices of it for as long as it likes.
package flash

import (
	"errors"
	"fmt"
	"time"

	"github.com/kaml-ssd/kaml/internal/sim"
)

// Errors returned by array operations.
var (
	ErrOutOfRange      = errors.New("flash: address out of range")
	ErrPageNotWritten  = errors.New("flash: read of unwritten page")
	ErrPageWritten     = errors.New("flash: program of already-written page")
	ErrProgramOrder    = errors.New("flash: pages within a block must be programmed sequentially")
	ErrWornOut         = errors.New("flash: block exceeded erase endurance")
	ErrInjectedFailure = errors.New("flash: injected failure")
	ErrPowerCut        = errors.New("flash: power lost")
)

// Op identifies a flash operation for fault-injection decisions.
type Op uint8

// Operations an Injector may fail.
const (
	OpRead Op = iota
	OpProgram
	OpErase
)

// Verdict is an Injector's decision about one operation.
type Verdict uint8

// Injection verdicts.
const (
	// VerdictOK lets the operation proceed normally.
	VerdictOK Verdict = iota
	// VerdictFail makes the operation fail. A failed program still consumes
	// the page (the cells were stressed; their contents are undefined, which
	// the simulator models as all-zero data and OOB). A failed read or erase
	// leaves the medium untouched.
	VerdictFail
	// VerdictPowerCut powers the array off before the operation takes
	// effect; every subsequent operation fails with ErrPowerCut until
	// PowerOn.
	VerdictPowerCut
	// VerdictPowerCutTorn powers the array off in the middle of a program:
	// the page is consumed with a partial data image and an all-zero OOB —
	// a torn page that recovery must detect and skip. Non-program
	// operations treat it as VerdictPowerCut.
	VerdictPowerCutTorn
)

// Injector decides the fate of individual flash operations; it is how the
// fault-injection subsystem (internal/faultinject) hooks into the array.
// Decide is called with the array's virtual clock so plans can trigger
// power cuts at a chosen time. Implementations must be safe for concurrent
// use: chips operate in parallel.
type Injector interface {
	Decide(op Op, p PPN, now time.Duration) Verdict
}

// Config describes the geometry and timing of a flash array. The defaults
// mirror the paper's board: 16 channels x 4 chips, 8 KB + 256 B pages.
type Config struct {
	Channels        int
	ChipsPerChannel int
	BlocksPerChip   int
	PagesPerBlock   int
	PageSize        int // data bytes per page
	OOBSize         int // out-of-band bytes per page

	ReadLatency    time.Duration // cell array -> chip register
	ProgramLatency time.Duration // chip register -> cell array
	EraseLatency   time.Duration
	ChannelMBps    int // shared per-channel transfer rate, MB/s

	EraseEndurance int // erases before a block becomes unreliable (0 = unlimited)
}

// DefaultConfig returns the geometry and timing used throughout the
// reproduction; see DESIGN.md §5.
func DefaultConfig() Config {
	return Config{
		Channels:        16,
		ChipsPerChannel: 4,
		BlocksPerChip:   64,
		PagesPerBlock:   64,
		PageSize:        8192,
		OOBSize:         256,
		ReadLatency:     70 * time.Microsecond,
		ProgramLatency:  400 * time.Microsecond,
		EraseLatency:    3 * time.Millisecond,
		ChannelMBps:     400,
		EraseEndurance:  10000,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.Channels <= 0 || c.ChipsPerChannel <= 0:
		return fmt.Errorf("flash: bad geometry %dx%d", c.Channels, c.ChipsPerChannel)
	case c.BlocksPerChip <= 0 || c.PagesPerBlock <= 0:
		return fmt.Errorf("flash: bad block geometry %d blocks x %d pages", c.BlocksPerChip, c.PagesPerBlock)
	case c.PageSize <= 0 || c.OOBSize < 0:
		return fmt.Errorf("flash: bad page size %d+%d", c.PageSize, c.OOBSize)
	case c.ChannelMBps <= 0:
		return fmt.Errorf("flash: bad channel rate %d", c.ChannelMBps)
	}
	return nil
}

// Chips returns the total chip count.
func (c Config) Chips() int { return c.Channels * c.ChipsPerChannel }

// PagesPerChip returns pages per chip.
func (c Config) PagesPerChip() int { return c.BlocksPerChip * c.PagesPerBlock }

// TotalPages returns the total page count across the array.
func (c Config) TotalPages() int { return c.Chips() * c.PagesPerChip() }

// TransferTime returns how long n bytes occupy a channel's bus.
func (c Config) TransferTime(n int) time.Duration {
	return time.Duration(n) * time.Second / time.Duration(c.ChannelMBps*1_000_000)
}

// PPN is a physical page number: a flat index over the whole array.
// Layout: chip-major, so consecutive PPNs within a block stay on one chip.
type PPN uint32

// InvalidPPN is a sentinel that never addresses a real page.
const InvalidPPN = PPN(^uint32(0))

// Addr is a decoded physical page address.
type Addr struct {
	Channel int
	Chip    int // within channel
	Block   int // within chip
	Page    int // within block
}

// Array is a simulated flash array. All operations charge virtual time on
// the owning sim.Engine. Only that engine's actors, which run one at a
// time, may call them: the array's state is plain memory its running actor
// owns, and the chip and channel mutexes model the hardware's arbitration,
// not host threads.
type Array struct {
	cfg      Config
	eng      *sim.Engine
	channels []*sim.Mutex // per-channel bus
	chips    []*chipState // flat: channel*ChipsPerChannel + chip

	// powered is false after a (simulated) power cut; every operation fails
	// with ErrPowerCut until PowerOn. The array's contents survive — that is
	// the whole point of crash-recovery testing.
	powered bool

	// inj, when set, is consulted before every operation.
	inj Injector

	// Stats counters.
	reads    int64
	programs int64
	erases   int64
}

type chipState struct {
	mu     *sim.Mutex // serializes ops on this chip
	blocks []blockState
}

type blockState struct {
	erases      int
	nextPage    int // next programmable page index; PagesPerBlock when full
	data        [][]byte
	oob         [][]byte
	failedErase bool // error injection: next erase fails
}

// New constructs an array on engine e. Panics on invalid config (programmer
// error, caught at device construction time).
func New(e *sim.Engine, cfg Config) *Array {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	a := &Array{cfg: cfg, eng: e, powered: true}
	a.channels = make([]*sim.Mutex, cfg.Channels)
	for i := range a.channels {
		a.channels[i] = e.NewMutex(fmt.Sprintf("flash-ch%d", i))
	}
	a.chips = make([]*chipState, cfg.Chips())
	for i := range a.chips {
		blocks := make([]blockState, cfg.BlocksPerChip)
		for b := range blocks {
			blocks[b] = blockState{
				data: make([][]byte, cfg.PagesPerBlock),
				oob:  make([][]byte, cfg.PagesPerBlock),
			}
		}
		a.chips[i] = &chipState{
			mu:     e.NewMutex(fmt.Sprintf("flash-chip%d", i)),
			blocks: blocks,
		}
	}
	return a
}

// Config returns the array's configuration.
func (a *Array) Config() Config { return a.cfg }

// SetInjector installs (or, with nil, removes) a fault injector.
func (a *Array) SetInjector(inj Injector) {
	a.inj = inj
}

// Powered reports whether the array currently has power.
func (a *Array) Powered() bool { return a.powered }

// PowerOff simulates an external power cut: every subsequent operation
// fails with ErrPowerCut. Stored pages survive.
func (a *Array) PowerOff() { a.powered = false }

// PowerOn restores power after a cut (the recovery path calls this before
// scanning the logs).
func (a *Array) PowerOn() { a.powered = true }

// decide consults the installed injector, applying power-cut verdicts to
// the array's power state.
func (a *Array) decide(op Op, p PPN) Verdict {
	if a.inj == nil {
		return VerdictOK
	}
	v := a.inj.Decide(op, p, a.eng.NowCheap())
	if v == VerdictPowerCut || v == VerdictPowerCutTorn {
		a.powered = false
	}
	return v
}

// Engine returns the owning simulation engine.
func (a *Array) Engine() *sim.Engine { return a.eng }

// Decode splits a PPN into its physical coordinates.
func (a *Array) Decode(p PPN) Addr {
	ppc := a.cfg.PagesPerChip()
	chip := int(p) / ppc
	rest := int(p) % ppc
	return Addr{
		Channel: chip / a.cfg.ChipsPerChannel,
		Chip:    chip % a.cfg.ChipsPerChannel,
		Block:   rest / a.cfg.PagesPerBlock,
		Page:    rest % a.cfg.PagesPerBlock,
	}
}

// Encode builds a PPN from physical coordinates.
func (a *Array) Encode(addr Addr) PPN {
	chip := addr.Channel*a.cfg.ChipsPerChannel + addr.Chip
	return PPN(chip*a.cfg.PagesPerChip() + addr.Block*a.cfg.PagesPerBlock + addr.Page)
}

// BlockPPN returns the PPN of page `page` of block `block` on the given chip.
func (a *Array) BlockPPN(channel, chip, block, page int) PPN {
	return a.Encode(Addr{Channel: channel, Chip: chip, Block: block, Page: page})
}

func (a *Array) locate(p PPN) (*chipState, *blockState, Addr, error) {
	if int(p) >= a.cfg.TotalPages() {
		return nil, nil, Addr{}, fmt.Errorf("%w: ppn %d", ErrOutOfRange, p)
	}
	addr := a.Decode(p)
	cs := a.chips[addr.Channel*a.cfg.ChipsPerChannel+addr.Chip]
	return cs, &cs.blocks[addr.Block], addr, nil
}

// ECCSectorSize is how many data bytes one ECC codeword protects. The
// controller decodes a page codeword by codeword, so a read moves over the
// channel only the sectors that hold the bytes it asked for, each with its
// share of the spare area, where its parity lives: at the default geometry
// a sector is 1 024 + 256/8 = 1 056 B, 2.64 µs of a 400 MB/s bus, and a page
// is eight of them. DESIGN.md §5 gives the reasons for the size.
const ECCSectorSize = 1024

// rangeTransfer returns how long the channel is held to move the ECC
// sectors that bytes [off, off+n) of a page touch, spare share included.
// The whole page is every sector: exactly PageSize + OOBSize bytes.
func (c Config) rangeTransfer(off, n int) time.Duration {
	sectors := (c.PageSize + ECCSectorSize - 1) / ECCSectorSize
	touched := (off+n-1)/ECCSectorSize - off/ECCSectorSize + 1
	return c.TransferTime((c.PageSize + c.OOBSize) * touched / sectors)
}

// ReadPage reads a full page (data + OOB; the OOB as long as it was
// programmed). The returned slices are the page itself and MUST be treated
// as immutable by the caller — flash pages never change between program and
// erase, and an erase drops the page's buffers rather than zeroing them, so
// the contents stay stable for as long as the caller holds them (see the
// package comment).
// Timing: chip busy for ReadLatency, then the channel bus is held while the
// page transfers to the controller. Readers that need the OOB or every
// record of a page use it; a reader that wants one record uses ReadRange.
func (a *Array) ReadPage(p PPN) (data, oob []byte, err error) {
	return a.read(p, 0, a.cfg.PageSize, true)
}

// ReadRange reads bytes [off, off+n) of a page's data. It senses the page
// exactly as ReadPage does — the chip is busy for ReadLatency, and faults,
// power cuts and unwritten pages fail it the same way — but holds the
// channel only for the ECC sectors the range touches (ECCSectorSize). The
// result is a capacity-capped view of the page, immutable like ReadPage's.
// A range that is empty or leaves the page fails with ErrOutOfRange.
func (a *Array) ReadRange(p PPN, off, n int) ([]byte, error) {
	if off < 0 || n <= 0 || n > a.cfg.PageSize-off {
		return nil, fmt.Errorf("%w: bytes [%d, %d) of a %d B page", ErrOutOfRange, off, off+n, a.cfg.PageSize)
	}
	data, _, err := a.read(p, off, n, false)
	if err != nil {
		return nil, err
	}
	return data[off : off+n : off+n], nil
}

// read senses page p and transfers the sectors holding bytes [off, off+n)
// of it; it returns the whole page, which the caller narrows, and the OOB
// only if withOOB (a ranged read never looks at it).
func (a *Array) read(p PPN, off, n int, withOOB bool) (data, oob []byte, err error) {
	if !a.powered {
		return nil, nil, fmt.Errorf("%w: read ppn %d", ErrPowerCut, p)
	}
	cs, bs, addr, err := a.locate(p)
	if err != nil {
		return nil, nil, err
	}
	switch a.decide(OpRead, p) {
	case VerdictFail:
		cs.mu.Lock()
		a.eng.Sleep(a.cfg.ReadLatency) // the failed sensing still took time
		cs.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: read ppn %d", ErrInjectedFailure, p)
	case VerdictPowerCut, VerdictPowerCutTorn:
		return nil, nil, fmt.Errorf("%w: read ppn %d", ErrPowerCut, p)
	}
	cs.mu.Lock()
	if bs.data[addr.Page] == nil {
		cs.mu.Unlock()
		return nil, nil, fmt.Errorf("%w: ppn %d", ErrPageNotWritten, p)
	}
	a.eng.Sleep(a.cfg.ReadLatency)
	data = bs.data[addr.Page]
	if withOOB {
		oob = bs.oob[addr.Page]
	}
	a.reads++
	cs.mu.Unlock()
	a.channels[addr.Channel].Use(a.cfg.rangeTransfer(off, n))
	return data, oob, nil
}

// ProgramPage writes a page. data must be at most PageSize bytes and oob at
// most OOBSize bytes.
//
// The array keeps what it is handed instead of copying it: on success the
// caller gives up data and oob, and must not write to either again — the
// page is immutable until an erase drops it, exactly like a slice ReadPage
// returns. A full-size data buffer is stored as is; a short one is padded
// once, into a fresh page. The OOB is stored as programmed, not padded to
// OOBSize. On any error the caller keeps both buffers, untouched: a failed
// or torn program stores fresh buffers of its own, so the payload can be
// programmed again elsewhere.
//
// Timing: the channel bus is held for the transfer, then the chip is busy
// for ProgramLatency.
func (a *Array) ProgramPage(p PPN, data, oob []byte) error {
	if len(data) > a.cfg.PageSize || len(oob) > a.cfg.OOBSize {
		return fmt.Errorf("flash: program size %d+%d exceeds page %d+%d",
			len(data), len(oob), a.cfg.PageSize, a.cfg.OOBSize)
	}
	if !a.powered {
		return fmt.Errorf("%w: program ppn %d", ErrPowerCut, p)
	}
	cs, bs, addr, err := a.locate(p)
	if err != nil {
		return err
	}
	a.channels[addr.Channel].Use(a.cfg.TransferTime(a.cfg.PageSize + a.cfg.OOBSize))
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if a.cfg.EraseEndurance > 0 && bs.erases > a.cfg.EraseEndurance {
		return fmt.Errorf("%w: chip %d/%d block %d", ErrWornOut, addr.Channel, addr.Chip, addr.Block)
	}
	if bs.data[addr.Page] != nil {
		return fmt.Errorf("%w: ppn %d", ErrPageWritten, p)
	}
	if addr.Page != bs.nextPage {
		return fmt.Errorf("%w: block %d expects page %d, got %d",
			ErrProgramOrder, addr.Block, bs.nextPage, addr.Page)
	}
	switch a.decide(OpProgram, p) {
	case VerdictFail:
		// A program failure still stresses the cells: the page is consumed
		// with undefined (all-zero) contents and the caller must rewrite the
		// payload elsewhere.
		a.eng.Sleep(a.cfg.ProgramLatency)
		bs.data[addr.Page] = make([]byte, a.cfg.PageSize)
		bs.oob[addr.Page] = make([]byte, a.cfg.OOBSize)
		bs.nextPage++
		return fmt.Errorf("%w: program ppn %d", ErrInjectedFailure, p)
	case VerdictPowerCut:
		// Power died before the cells committed; the page stays unwritten.
		return fmt.Errorf("%w: program ppn %d", ErrPowerCut, p)
	case VerdictPowerCutTorn:
		// Power died mid-program: a torn page — partial data, no OOB.
		stored := make([]byte, a.cfg.PageSize)
		copy(stored, data[:len(data)/2])
		bs.data[addr.Page] = stored
		bs.oob[addr.Page] = make([]byte, a.cfg.OOBSize)
		bs.nextPage++
		return fmt.Errorf("%w: torn program ppn %d", ErrPowerCut, p)
	}
	a.eng.Sleep(a.cfg.ProgramLatency)
	if len(data) < a.cfg.PageSize {
		padded := make([]byte, a.cfg.PageSize)
		copy(padded, data)
		data = padded
	}
	// Full-length, capacity-capped views: nothing can append through them.
	bs.data[addr.Page] = data[:a.cfg.PageSize:a.cfg.PageSize]
	bs.oob[addr.Page] = oob[:len(oob):len(oob)]
	bs.nextPage++
	a.programs++
	return nil
}

// EraseBlock erases the block containing PPN p (its page component is
// ignored). Timing: chip busy for EraseLatency.
func (a *Array) EraseBlock(p PPN) error {
	if !a.powered {
		return fmt.Errorf("%w: erase ppn %d", ErrPowerCut, p)
	}
	cs, bs, addr, err := a.locate(p)
	if err != nil {
		return err
	}
	switch a.decide(OpErase, p) {
	case VerdictFail:
		cs.mu.Lock()
		a.eng.Sleep(a.cfg.EraseLatency)
		cs.mu.Unlock()
		return fmt.Errorf("%w: erase of chip %d/%d block %d", ErrInjectedFailure, addr.Channel, addr.Chip, addr.Block)
	case VerdictPowerCut, VerdictPowerCutTorn:
		return fmt.Errorf("%w: erase ppn %d", ErrPowerCut, p)
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	a.eng.Sleep(a.cfg.EraseLatency)
	if bs.failedErase {
		bs.failedErase = false
		return fmt.Errorf("%w: erase of chip %d/%d block %d", ErrInjectedFailure, addr.Channel, addr.Chip, addr.Block)
	}
	bs.erases++
	if a.cfg.EraseEndurance > 0 && bs.erases > a.cfg.EraseEndurance {
		return fmt.Errorf("%w: chip %d/%d block %d", ErrWornOut, addr.Channel, addr.Chip, addr.Block)
	}
	// Drop (never zero) the page buffers: readers that fetched a slice
	// from ReadPage before the erase keep a stable view of the old contents.
	for i := range bs.data {
		bs.data[i] = nil
		bs.oob[i] = nil
	}
	bs.nextPage = 0
	a.erases++
	return nil
}

// ProgrammedPages returns how many pages of the block containing p have
// been programmed since the last erase (metadata query; no timing cost).
// Recovery code uses it to re-synchronize append points after a crash.
// It takes no chip lock, so it never waits on an operation in flight.
func (a *Array) ProgrammedPages(p PPN) int {
	_, bs, _, err := a.locate(p)
	if err != nil {
		return -1
	}
	return bs.nextPage
}

// EraseCount returns how many times the block containing p has been erased.
// Like ProgrammedPages it takes no chip lock and costs no time.
func (a *Array) EraseCount(p PPN) int {
	_, bs, _, err := a.locate(p)
	if err != nil {
		return -1
	}
	return bs.erases
}

// InjectEraseFailure makes the next erase of the block containing p fail,
// for fault-injection tests.
func (a *Array) InjectEraseFailure(p PPN) {
	_, bs, _, err := a.locate(p)
	if err == nil {
		bs.failedErase = true
	}
}

// Stats reports cumulative operation counts.
type Stats struct {
	Reads, Programs, Erases int64
}

// Stats returns a snapshot of the array's counters.
func (a *Array) Stats() Stats {
	return Stats{Reads: a.reads, Programs: a.programs, Erases: a.erases}
}
