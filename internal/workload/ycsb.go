package workload

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/kaml-ssd/kaml/internal/storage"
)

// YCSBMix is one workload's operation ratios (paper Table III).
type YCSBMix struct {
	Read, Update, Insert, RMW float64
}

// YCSBMixes reproduces Table III: workloads A, B, C, D, F (the paper skips
// E, the scan workload).
var YCSBMixes = map[byte]YCSBMix{
	'a': {Read: 0.5, Update: 0.5},
	'b': {Read: 0.95, Update: 0.05},
	'c': {Read: 1.0},
	'd': {Read: 0.95, Insert: 0.05},
	'f': {Read: 0.5, RMW: 0.5},
}

// YCSBConfig sizes a YCSB run. The paper uses 20M 1024-byte records; the
// experiments scale that down for simulation (shape-preserving).
type YCSBConfig struct {
	Workload  byte // 'a', 'b', 'c', 'd', 'f'
	Records   int
	ValueSize int
	// Uniform selects uniform instead of scrambled-zipfian requests.
	Uniform bool
}

// YCSB drives one YCSB workload against a storage engine.
type YCSB struct {
	cfg   YCSBConfig
	mix   YCSBMix
	eng   storage.Engine
	table uint32

	chooser  KeyChooser
	latest   *Latest // workload d
	inserted uint64  // last key inserted; the workers sharing the driver run one at a time
}

// NewYCSB creates the driver and its table (does not load data).
func NewYCSB(eng storage.Engine, cfg YCSBConfig) (*YCSB, error) {
	mix, ok := YCSBMixes[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("workload: unknown YCSB workload %q", cfg.Workload)
	}
	if cfg.Records <= 0 || cfg.ValueSize <= 0 {
		return nil, errors.New("workload: bad YCSB config")
	}
	table, err := eng.CreateTable(fmt.Sprintf("ycsb-%c", cfg.Workload),
		storage.TableHint{ExpectedRows: cfg.Records * 2})
	if err != nil {
		return nil, err
	}
	y := &YCSB{cfg: cfg, mix: mix, eng: eng, table: table, inserted: uint64(cfg.Records)}
	switch {
	case cfg.Uniform:
		y.chooser = Uniform{N: uint64(cfg.Records)}
	case cfg.Workload == 'd':
		y.latest = NewLatest(uint64(cfg.Records))
		y.chooser = y.latest
	default:
		y.chooser = NewScrambledZipfian(uint64(cfg.Records))
	}
	return y, nil
}

// Table returns the backing table ID.
func (y *YCSB) Table() uint32 { return y.table }

// value builds a deterministic record body.
func (y *YCSB) value(key uint64, rng *rand.Rand) []byte {
	v := make([]byte, y.cfg.ValueSize)
	seed := key*2654435761 + uint64(rng.Intn(1<<16))
	for i := range v {
		v[i] = byte(seed >> (uint(i%8) * 8))
	}
	return v
}

// Load populates the table with the initial records, batching loads into
// multi-record transactions for speed.
func (y *YCSB) Load(rng *rand.Rand, batch int) error {
	if batch < 1 {
		batch = 64
	}
	for base := 0; base < y.cfg.Records; base += batch {
		tx := y.eng.Begin()
		for k := base; k < base+batch && k < y.cfg.Records; k++ {
			if err := tx.Insert(y.table, uint64(k), y.value(uint64(k), rng)); err != nil {
				tx.Free()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			tx.Free()
			return err
		}
		tx.Free()
	}
	return nil
}

// Op runs one operation drawn from the mix. It retries wait-die aborts
// internally and reports the operation kind it executed.
func (y *YCSB) Op(rng *rand.Rand) (kind string, err error) {
	r := rng.Float64()
	switch {
	case r < y.mix.Read:
		return "read", y.doRead(rng)
	case r < y.mix.Read+y.mix.Update:
		return "update", y.doUpdate(rng)
	case r < y.mix.Read+y.mix.Update+y.mix.Insert:
		return "insert", y.doInsert(rng)
	default:
		return "rmw", y.doRMW(rng)
	}
}

func (y *YCSB) doRead(rng *rand.Rand) error {
	key := y.chooser.Next(rng)
	return storage.RunTxn(y.eng, func(tx storage.Tx) error {
		if _, err := tx.Read(y.table, key); err != nil && !errors.Is(err, storage.ErrNotFound) {
			return err
		}
		return tx.Commit()
	})
}

func (y *YCSB) doUpdate(rng *rand.Rand) error {
	key := y.chooser.Next(rng)
	val := y.value(key, rng)
	return storage.RunTxn(y.eng, func(tx storage.Tx) error {
		if err := tx.Update(y.table, key, val); err != nil {
			return err
		}
		return tx.Commit()
	})
}

func (y *YCSB) doInsert(rng *rand.Rand) error {
	y.inserted++
	key := y.inserted
	if y.latest != nil {
		y.latest.SetMax(key)
	}
	val := y.value(key, rng)
	return storage.RunTxn(y.eng, func(tx storage.Tx) error {
		if err := tx.Insert(y.table, key, val); err != nil {
			return err
		}
		return tx.Commit()
	})
}

func (y *YCSB) doRMW(rng *rand.Rand) error {
	key := y.chooser.Next(rng)
	val := y.value(key, rng)
	return storage.RunTxn(y.eng, func(tx storage.Tx) error {
		if _, err := tx.Read(y.table, key); err != nil && !errors.Is(err, storage.ErrNotFound) {
			return err
		}
		if err := tx.Update(y.table, key, val); err != nil {
			return err
		}
		return tx.Commit()
	})
}
