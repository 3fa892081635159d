package workload

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"github.com/kaml-ssd/kaml/internal/storage"
)

// TPC-B (paper §V-D): branches, tellers, accounts, history; the measured
// transaction is AccountUpdate. Per the paper, all values are 512 bytes;
// the official scale puts 10 tellers and 100,000 accounts per branch. The
// config lets experiments shrink the accounts-per-branch ratio so the
// working set fits a simulated device while keeping the same contention
// shape (tellers and branches stay hot).
type TPCBConfig struct {
	Branches          int
	TellersPerBranch  int
	AccountsPerBranch int
	ValueSize         int
}

// DefaultTPCBConfig returns a laptop-scale configuration.
func DefaultTPCBConfig() TPCBConfig {
	return TPCBConfig{
		Branches:          4,
		TellersPerBranch:  10,
		AccountsPerBranch: 2000,
		ValueSize:         512,
	}
}

// TPCB drives the TPC-B AccountUpdate transaction.
type TPCB struct {
	cfg  TPCBConfig
	eng  storage.Engine
	acct uint32 // table IDs
	tell uint32
	brch uint32
	hist uint32

	histSeq uint64
}

// NewTPCB creates the four tables.
func NewTPCB(eng storage.Engine, cfg TPCBConfig) (*TPCB, error) {
	if cfg.Branches <= 0 || cfg.TellersPerBranch <= 0 || cfg.AccountsPerBranch <= 0 {
		return nil, errors.New("workload: bad TPC-B config")
	}
	if cfg.ValueSize < 16 {
		cfg.ValueSize = 512
	}
	t := &TPCB{cfg: cfg, eng: eng}
	var err error
	if t.acct, err = eng.CreateTable("tpcb-account",
		storage.TableHint{ExpectedRows: cfg.Branches * cfg.AccountsPerBranch}); err != nil {
		return nil, err
	}
	if t.tell, err = eng.CreateTable("tpcb-teller",
		storage.TableHint{ExpectedRows: cfg.Branches * cfg.TellersPerBranch}); err != nil {
		return nil, err
	}
	if t.brch, err = eng.CreateTable("tpcb-branch",
		storage.TableHint{ExpectedRows: cfg.Branches}); err != nil {
		return nil, err
	}
	if t.hist, err = eng.CreateTable("tpcb-history",
		storage.TableHint{ExpectedRows: cfg.Branches * cfg.AccountsPerBranch}); err != nil {
		return nil, err
	}
	return t, nil
}

// balanceRow serializes a 512-byte row whose first 8 bytes are a balance.
func (t *TPCB) balanceRow(balance int64) []byte {
	row := make([]byte, t.cfg.ValueSize)
	binary.LittleEndian.PutUint64(row, uint64(balance))
	return row
}

func rowBalance(row []byte) (int64, error) {
	if len(row) < 8 {
		return 0, errors.New("workload: short TPC-B row")
	}
	return int64(binary.LittleEndian.Uint64(row)), nil
}

// Accounts returns the total account count.
func (t *TPCB) Accounts() int { return t.cfg.Branches * t.cfg.AccountsPerBranch }

// Load populates branches, tellers, and accounts with zero balances.
func (t *TPCB) Load() error {
	load := func(table uint32, n int) error {
		const batch = 64
		for base := 0; base < n; base += batch {
			tx := t.eng.Begin()
			for k := base; k < base+batch && k < n; k++ {
				if err := tx.Insert(table, uint64(k), t.balanceRow(0)); err != nil {
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
	if err := load(t.brch, t.cfg.Branches); err != nil {
		return err
	}
	if err := load(t.tell, t.cfg.Branches*t.cfg.TellersPerBranch); err != nil {
		return err
	}
	return load(t.acct, t.Accounts())
}

// AccountUpdate executes one TPC-B transaction: read-modify the account,
// teller, and branch balances by a random delta and insert a history row.
// Wait-die aborts are retried internally.
func (t *TPCB) AccountUpdate(rng *rand.Rand) error {
	account := uint64(rng.Intn(t.Accounts()))
	branch := account / uint64(t.cfg.AccountsPerBranch)
	teller := branch*uint64(t.cfg.TellersPerBranch) + uint64(rng.Intn(t.cfg.TellersPerBranch))
	delta := int64(rng.Intn(1999999) - 999999) // TPC-B: [-999999, +999999]

	return storage.RunTxn(t.eng, func(tx storage.Tx) error {
		if err := t.addBalance(tx, t.acct, account, delta); err != nil {
			return err
		}
		if err := t.addBalance(tx, t.tell, teller, delta); err != nil {
			return err
		}
		if err := t.addBalance(tx, t.brch, branch, delta); err != nil {
			return err
		}
		t.histSeq++
		hid := t.histSeq
		hrow := make([]byte, t.cfg.ValueSize)
		binary.LittleEndian.PutUint64(hrow[0:8], account)
		binary.LittleEndian.PutUint64(hrow[8:16], uint64(delta))
		if err := tx.Insert(t.hist, hid, hrow); err != nil {
			return err
		}
		return tx.Commit()
	})
}

func (t *TPCB) addBalance(tx storage.Tx, table uint32, key uint64, delta int64) error {
	row, err := tx.Read(table, key)
	if err != nil {
		return err
	}
	bal, err := rowBalance(row)
	if err != nil {
		return err
	}
	return tx.Update(table, key, t.balanceRow(bal+delta))
}

// TotalBalance sums a table's balances (consistency checks in tests).
func (t *TPCB) TotalBalance(table uint32, n int) (int64, error) {
	var total int64
	tx := t.eng.Begin()
	defer tx.Free()
	for k := 0; k < n; k++ {
		row, err := tx.Read(table, uint64(k))
		if err != nil {
			return 0, fmt.Errorf("workload: balance %d: %w", k, err)
		}
		b, err := rowBalance(row)
		if err != nil {
			return 0, err
		}
		total += b
	}
	return total, tx.Commit()
}

// AccountTable / TellerTable / BranchTable expose table IDs for checks.
func (t *TPCB) AccountTable() uint32 { return t.acct }

// TellerTable returns the teller table ID.
func (t *TPCB) TellerTable() uint32 { return t.tell }

// BranchTable returns the branch table ID.
func (t *TPCB) BranchTable() uint32 { return t.brch }
