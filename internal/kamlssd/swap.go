package kamlssd

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"github.com/kaml-ssd/kaml/internal/flash"
	"github.com/kaml-ssd/kaml/internal/hashindex"
)

// This file implements §IV-C's table swapping: an idle namespace's mapping
// table is serialized to flash pages, its DRAM released, and the table
// reloaded on the next access. The swap state (swapped, loading, swapPages)
// lives on the family root and is guarded by root.mu.

// swapHeaderLen prefixes the serialized table with its byte length (the
// last flash page is padded).
const swapHeaderLen = 8

// errSwapBusy reports a swap-out abandoned because the namespace is in use.
func errSwapBusy(nsID uint32) error {
	return fmt.Errorf("kamlssd: namespace %d is being written; cannot swap out", nsID)
}

// chainsOnFlash reports whether every retained version is flash-resident. A
// version still in NVRAM would dangle in the serialized image once the
// flusher installs its flash address.
func chainsOnFlash(ch *hashindex.VersionChains) bool {
	clean := true
	ch.Range(func(_ uint64, head *hashindex.Version) bool {
		for v := head; v != nil && clean; v = v.Prev() {
			clean = location(v.Loc()).isFlash()
		}
		return clean
	})
	return clean
}

// SwapOutIndex serializes the namespace's mapping table — the one directory
// and every version chain under it — to flash pages and releases its DRAM
// ("KAML employs a simple policy to swap unused mapping tables out to flash
// to make room for those in use"). Swap targets idle namespaces (§IV-C): it
// drains the flushers first and refuses a namespace with a Put batch in
// flight or a version still in NVRAM.
func (d *Device) SwapOutIndex(nsID uint32) error {
	var blob []byte
	var lg *logState
	var ns *namespace
	for attempt := 0; ; attempt++ {
		d.Flush()
		var lerr error
		ns, lerr = d.lookupNS(nsID)
		if lerr != nil {
			return lerr
		}
		if ns.origin != 0 {
			return nil // a snapshot shell mounts no table of its own
		}
		ns.mu.RLock()
		ch := ns.fam.chains.Load()
		if ch == nil {
			ns.mu.RUnlock()
			return nil // already swapped out
		}
		if ns.pendingBatches.Load() == 0 && chainsOnFlash(ch) {
			blob = ch.Serialize()
			header := make([]byte, swapHeaderLen)
			binary.LittleEndian.PutUint64(header, uint64(len(blob)))
			blob = append(header, blob...)
			lg = d.logs[ns.logIDs[0]]
			ns.mu.RUnlock()
			break
		}
		ns.mu.RUnlock()
		if attempt > 8 {
			return errSwapBusy(nsID)
		}
	}

	var pages []flash.PPN
	for off := 0; off < len(blob); off += d.fc.PageSize {
		end := off + d.fc.PageSize
		if end > len(blob) {
			end = len(blob)
		}
		lg.mu.Lock()
		ppn, err := lg.nextPPN(true)
		lg.mu.Unlock()
		if err != nil {
			return err
		}
		if err := d.programPage(ppn, blob[off:end], d.buildOOB(nil, pageTypeIndex, blob[off:end])); err != nil {
			return err
		}
		pages = append(pages, ppn)
	}

	ns.mu.Lock()
	ch := ns.fam.chains.Load()
	if ch == nil {
		ns.mu.Unlock()
		return nil // another actor swapped it while we programmed
	}
	// The table may have changed while the pages were programming — a Put, a
	// GC relocation, a prune — and swapping the stale image would lose the
	// change. Abandon the attempt then (the programmed pages fail the
	// liveness check and become garbage).
	if ns.pendingBatches.Load() != 0 || !bytes.Equal(ch.Serialize(), blob[swapHeaderLen:]) {
		ns.mu.Unlock()
		return errSwapBusy(nsID)
	}
	ns.swapPages = pages
	ns.swapped = true
	ns.fam.chains.Store(nil)
	ns.mu.Unlock()
	chunksPerPage := d.fc.PageSize / chunkSize
	for _, p := range pages {
		d.creditValid(flashLoc(p, 0, chunksPerPage))
	}
	return nil
}

// loadIndex reads fam's swapped-out mapping table back into DRAM. Called
// with no namespace or log lock held; concurrent loads of the same family
// serialize on the loading flag.
func (d *Device) loadIndex(fam *family) error {
	root := fam.root
	for {
		root.mu.Lock()
		if !root.swapped {
			root.mu.Unlock()
			return nil
		}
		if !root.loading {
			root.loading = true
			pages := append([]flash.PPN(nil), root.swapPages...)
			root.mu.Unlock()
			return d.finishLoad(fam, pages)
		}
		root.mu.Unlock()
		d.eng.Sleep(retryBackoff) // another actor is loading; wait
	}
}

func (d *Device) finishLoad(fam *family, pages []flash.PPN) (err error) {
	root := fam.root
	defer func() {
		if err != nil {
			root.mu.Lock()
			root.loading = false
			root.mu.Unlock()
		}
	}()
	var blob []byte
	for _, p := range pages {
		data, _, rerr := d.arr.ReadPage(p)
		if rerr != nil {
			return fmt.Errorf("kamlssd: load index ns %d: %w", root.id, rerr)
		}
		blob = append(blob, data...)
	}
	if len(blob) < swapHeaderLen {
		return fmt.Errorf("kamlssd: load index ns %d: short blob", root.id)
	}
	total := binary.LittleEndian.Uint64(blob)
	if uint64(len(blob)-swapHeaderLen) < total {
		return fmt.Errorf("kamlssd: load index ns %d: truncated blob", root.id)
	}
	// Rebuild over a directory of the original shape so load-factor
	// behaviour persists.
	ch, derr := hashindex.DeserializeVersionChains(blob[swapHeaderLen:swapHeaderLen+total], d.newDirectory(fam.kind, fam.capacity))
	if derr != nil {
		return fmt.Errorf("kamlssd: load index ns %d: %w", root.id, derr)
	}

	root.mu.Lock()
	swapPages := root.swapPages
	fam.chains.Store(ch)
	root.swapped = false
	root.loading = false
	root.swapPages = nil
	root.mu.Unlock()
	chunksPerPage := d.fc.PageSize / chunkSize
	for _, p := range swapPages {
		d.discountValid(flashLoc(p, 0, chunksPerPage))
	}
	return nil
}
