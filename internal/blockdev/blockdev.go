// Package blockdev adapts the baseline FTL's 4 KB-sector interface to the
// 8 KB database pages the Shore-MT baseline and its write-ahead log use.
// It is the moral equivalent of the raw-device access path the paper's
// baseline uses ("the driver and the user-space library allow the baseline
// program to issue read and write commands directly to the SSD").
package blockdev

import (
	"errors"
	"fmt"

	"github.com/kaml-ssd/kaml/internal/ftl"
)

// PageSize is the database page size (two 4 KB device sectors).
const PageSize = 2 * ftl.SectorSize

// Device exposes page-granular I/O over the baseline FTL.
type Device struct {
	ftl *ftl.Device
}

// New wraps a baseline FTL device.
func New(d *ftl.Device) *Device { return &Device{ftl: d} }

// FTL returns the underlying device (for stats).
func (d *Device) FTL() *ftl.Device { return d.ftl }

// Pages returns how many whole pages the device exposes.
func (d *Device) Pages() int { return d.ftl.Capacity() / 2 }

// ReadPage reads page pageNo into buf (len >= PageSize).
func (d *Device) ReadPage(pageNo int, buf []byte) error {
	if len(buf) < PageSize {
		return fmt.Errorf("blockdev: short buffer %d", len(buf))
	}
	if err := d.ftl.ReadSector(pageNo*2, buf[:ftl.SectorSize]); err != nil {
		return err
	}
	return d.ftl.ReadSector(pageNo*2+1, buf[ftl.SectorSize:PageSize])
}

// WritePage writes the PageSize bytes of data to page pageNo. The write is
// acknowledged by the device's NV-DRAM buffer; call Flush for durability
// ordering (fsync).
func (d *Device) WritePage(pageNo int, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("blockdev: bad page size %d", len(data))
	}
	if err := d.ftl.WriteSector(pageNo*2, data[:ftl.SectorSize]); err != nil {
		return err
	}
	return d.ftl.WriteSector(pageNo*2+1, data[ftl.SectorSize:])
}

// ReadPageLenient reads a page, zero-filling sectors that were never
// written. Log readers use it because WritePrefix may leave a page's tail
// sector unmapped.
func (d *Device) ReadPageLenient(pageNo int, buf []byte) error {
	if len(buf) < PageSize {
		return fmt.Errorf("blockdev: short buffer %d", len(buf))
	}
	for half := 0; half < 2; half++ {
		seg := buf[half*ftl.SectorSize : (half+1)*ftl.SectorSize]
		err := d.ftl.ReadSector(pageNo*2+half, seg)
		if errors.Is(err, ftl.ErrUnmapped) {
			for i := range seg {
				seg[i] = 0
			}
			continue
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// WritePrefix writes only the leading sectors of a page that contain data
// (len(data) rounded up to whole sectors). Log writers use it so a half-
// filled tail page costs one sector write instead of two.
func (d *Device) WritePrefix(pageNo int, data []byte) error {
	if len(data) == 0 || len(data) > PageSize {
		return fmt.Errorf("blockdev: bad prefix size %d", len(data))
	}
	sector := make([]byte, ftl.SectorSize)
	for off := 0; off < len(data); off += ftl.SectorSize {
		end := off + ftl.SectorSize
		if end > len(data) {
			end = len(data)
			for i := range sector {
				sector[i] = 0
			}
		}
		copy(sector, data[off:end])
		if err := d.ftl.WriteSector(pageNo*2+off/ftl.SectorSize, sector); err != nil {
			return err
		}
	}
	return nil
}

// Flush is the engine's fsync: cheap, because the device's write buffer is
// battery-backed (power-safe at write acknowledgement).
func (d *Device) Flush() { d.ftl.Flush() }

// Close shuts down the underlying FTL.
func (d *Device) Close() { d.ftl.Close() }
