package workload

import (
	"encoding/binary"
	"errors"
	"math/rand"

	"github.com/kaml-ssd/kaml/internal/storage"
)

// TPC-C subset (paper §V-D): the NewOrder and Payment transactions over
// the standard tables, with 512-byte rows except CUSTOMER's 1024 bytes
// ("all values are 512 bytes except TPCC CUSTOMER table, whose values are
// 1024 bytes"). Scale is configurable: the official 100-warehouse run does
// not fit a unit-test budget, so experiments shrink warehouse count and
// rows-per-warehouse while keeping the transaction logic intact.
type TPCCConfig struct {
	Warehouses        int
	DistrictsPerWH    int // spec: 10
	CustomersPerDist  int // spec: 3000
	Items             int // spec: 100000
	StockPerWarehouse int // spec: 100000
	RowSize           int // 512
	CustomerRowSize   int // 1024
}

// DefaultTPCCConfig returns a laptop-scale configuration.
func DefaultTPCCConfig() TPCCConfig {
	return TPCCConfig{
		Warehouses:        2,
		DistrictsPerWH:    10,
		CustomersPerDist:  60,
		Items:             500,
		StockPerWarehouse: 500,
		RowSize:           512,
		CustomerRowSize:   1024,
	}
}

// TPCC drives the NewOrder and Payment transactions.
type TPCC struct {
	cfg TPCCConfig
	eng storage.Engine

	warehouse uint32
	district  uint32
	customer  uint32
	item      uint32
	stock     uint32
	orders    uint32
	orderLine uint32
	newOrder  uint32
	history   uint32

	orderSeq uint64
	histSeq  uint64
}

// Key packing: composite TPC-C keys become 64-bit KAML keys.
// warehouse: w | district: w*DPW+d | customer: (w*DPW+d)*CPD+c |
// stock: w*SPW+i | orders/order-line/new-order: global sequence numbers.

func (t *TPCC) dKey(w, d int) uint64 {
	return uint64(w*t.cfg.DistrictsPerWH + d)
}

func (t *TPCC) cKey(w, d, c int) uint64 {
	return t.dKey(w, d)*uint64(t.cfg.CustomersPerDist) + uint64(c)
}

func (t *TPCC) sKey(w, i int) uint64 {
	return uint64(w*t.cfg.StockPerWarehouse + i)
}

// NewTPCC creates the nine tables.
func NewTPCC(eng storage.Engine, cfg TPCCConfig) (*TPCC, error) {
	if cfg.Warehouses <= 0 || cfg.DistrictsPerWH <= 0 || cfg.CustomersPerDist <= 0 ||
		cfg.Items <= 0 || cfg.StockPerWarehouse <= 0 {
		return nil, errors.New("workload: bad TPC-C config")
	}
	if cfg.RowSize < 16 {
		cfg.RowSize = 512
	}
	if cfg.CustomerRowSize < 16 {
		cfg.CustomerRowSize = 1024
	}
	t := &TPCC{cfg: cfg, eng: eng}
	mk := func(name string, rows int) (uint32, error) {
		return eng.CreateTable("tpcc-"+name, storage.TableHint{ExpectedRows: rows})
	}
	var err error
	w := cfg.Warehouses
	if t.warehouse, err = mk("warehouse", w); err != nil {
		return nil, err
	}
	if t.district, err = mk("district", w*cfg.DistrictsPerWH); err != nil {
		return nil, err
	}
	if t.customer, err = mk("customer", w*cfg.DistrictsPerWH*cfg.CustomersPerDist); err != nil {
		return nil, err
	}
	if t.item, err = mk("item", cfg.Items); err != nil {
		return nil, err
	}
	if t.stock, err = mk("stock", w*cfg.StockPerWarehouse); err != nil {
		return nil, err
	}
	orderCap := w * cfg.DistrictsPerWH * cfg.CustomersPerDist * 4
	if t.orders, err = mk("orders", orderCap); err != nil {
		return nil, err
	}
	if t.orderLine, err = mk("order-line", orderCap*10); err != nil {
		return nil, err
	}
	if t.newOrder, err = mk("new-order", orderCap); err != nil {
		return nil, err
	}
	if t.history, err = mk("history", orderCap); err != nil {
		return nil, err
	}
	return t, nil
}

// row builds a fixed-size row whose first 8 bytes carry a numeric field
// (balance, quantity, next-order-id...).
func row(size int, field int64) []byte {
	r := make([]byte, size)
	binary.LittleEndian.PutUint64(r, uint64(field))
	return r
}

func fieldOf(r []byte) int64 {
	if len(r) < 8 {
		return 0
	}
	return int64(binary.LittleEndian.Uint64(r))
}

// Load populates warehouses, districts, customers, items, and stock.
func (t *TPCC) Load() error {
	type bulk struct {
		table uint32
		n     int
		size  int
		field int64
	}
	jobs := []bulk{
		{t.warehouse, t.cfg.Warehouses, t.cfg.RowSize, 0},
		{t.district, t.cfg.Warehouses * t.cfg.DistrictsPerWH, t.cfg.RowSize, 1}, // next O_ID
		{t.customer, t.cfg.Warehouses * t.cfg.DistrictsPerWH * t.cfg.CustomersPerDist, t.cfg.CustomerRowSize, 0},
		{t.item, t.cfg.Items, t.cfg.RowSize, 100},
		{t.stock, t.cfg.Warehouses * t.cfg.StockPerWarehouse, t.cfg.RowSize, 100}, // quantity
	}
	for _, j := range jobs {
		const batch = 32
		for base := 0; base < j.n; base += batch {
			tx := t.eng.Begin()
			for k := base; k < base+batch && k < j.n; k++ {
				if err := tx.Insert(j.table, uint64(k), row(j.size, j.field)); err != nil {
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
	}
	return nil
}

// NewOrder executes the TPC-C NewOrder transaction: read the district's
// next order id and bump it, check item + decrement stock for 5-15 lines,
// insert ORDER, NEW-ORDER, and the ORDER-LINE rows.
func (t *TPCC) NewOrder(rng *rand.Rand) error {
	w := rng.Intn(t.cfg.Warehouses)
	d := rng.Intn(t.cfg.DistrictsPerWH)
	c := rng.Intn(t.cfg.CustomersPerDist)
	nLines := 5 + rng.Intn(11)
	lines := make([]int, nLines)
	for i := range lines {
		lines[i] = rng.Intn(t.cfg.Items)
	}
	return storage.RunTxn(t.eng, func(tx storage.Tx) error {
		// District: allocate the order id.
		drow, err := tx.Read(t.district, t.dKey(w, d))
		if err != nil {
			return err
		}
		nextOID := fieldOf(drow)
		if err := tx.Update(t.district, t.dKey(w, d), row(t.cfg.RowSize, nextOID+1)); err != nil {
			return err
		}
		// Customer read (credit check).
		if _, err := tx.Read(t.customer, t.cKey(w, d, c)); err != nil {
			return err
		}
		// Per-line: read item, decrement stock.
		for _, it := range lines {
			if _, err := tx.Read(t.item, uint64(it)); err != nil {
				return err
			}
			sk := t.sKey(w, it%t.cfg.StockPerWarehouse)
			srow, err := tx.Read(t.stock, sk)
			if err != nil {
				return err
			}
			qty := fieldOf(srow)
			if qty < 10 {
				qty += 91 // TPC-C restock rule
			}
			if err := tx.Update(t.stock, sk, row(t.cfg.RowSize, qty-1)); err != nil {
				return err
			}
		}
		// Order + new-order + order lines.
		t.orderSeq++
		oid := t.orderSeq
		if err := tx.Insert(t.orders, oid, row(t.cfg.RowSize, int64(nLines))); err != nil {
			return err
		}
		if err := tx.Insert(t.newOrder, oid, row(t.cfg.RowSize, nextOID)); err != nil {
			return err
		}
		for i := range lines {
			olKey := oid*16 + uint64(i)
			if err := tx.Insert(t.orderLine, olKey, row(t.cfg.RowSize, int64(lines[i]))); err != nil {
				return err
			}
		}
		return tx.Commit()
	})
}

// Payment executes the TPC-C Payment transaction: update warehouse,
// district, and customer balances and insert a history row.
func (t *TPCC) Payment(rng *rand.Rand) error {
	w := rng.Intn(t.cfg.Warehouses)
	d := rng.Intn(t.cfg.DistrictsPerWH)
	c := rng.Intn(t.cfg.CustomersPerDist)
	amount := int64(rng.Intn(500000) + 100)
	return storage.RunTxn(t.eng, func(tx storage.Tx) error {
		bump := func(table uint32, key uint64, size int, delta int64) error {
			r, err := tx.Read(table, key)
			if err != nil {
				return err
			}
			return tx.Update(table, key, row(size, fieldOf(r)+delta))
		}
		if err := bump(t.warehouse, uint64(w), t.cfg.RowSize, amount); err != nil {
			return err
		}
		if err := bump(t.district, t.dKey(w, d), t.cfg.RowSize, amount); err != nil {
			return err
		}
		if err := bump(t.customer, t.cKey(w, d, c), t.cfg.CustomerRowSize, -amount); err != nil {
			return err
		}
		t.histSeq++
		hid := t.histSeq
		if err := tx.Insert(t.history, hid, row(t.cfg.RowSize, amount)); err != nil {
			return err
		}
		return tx.Commit()
	})
}

// OrdersTable returns the orders table ID.
func (t *TPCC) OrdersTable() uint32 { return t.orders }
