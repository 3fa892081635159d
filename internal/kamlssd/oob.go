package kamlssd

import (
	"encoding/binary"
	"hash/crc32"
)

// On-flash OOB layout for every page the firmware programs. The recovery
// scanner rebuilds the mapping tables from raw pages, so each page must be
// self-describing AND self-verifying — a power cut mid-program can leave a
// torn page (partial data, zeroed OOB) and a failed program leaves garbage;
// both must be detected and skipped, never parsed.
//
//	bytes [0:8)   record chunk bitmap
//	byte  [8]     page type (always pageTypeRecord)
//	bytes [9:11)  magic "KM" — absent on torn/garbage pages
//	bytes [11:15) CRC32 (IEEE) of the full padded page data
const (
	oobTypeOff  = 8
	oobMagicOff = 9
	oobCRCOff   = 11
	oobLen      = 15
)

// pageTypeRecord is the one page type the firmware writes: a page of packed
// records. A page of any other type is rejected like a torn one.
const pageTypeRecord = 0

var oobMagic = [2]byte{'K', 'M'}

// buildOOB assembles the full OOB for a record page about to be programmed.
// bitmap is the packer's 8-byte chunk bitmap; data is the page image
// record.Packer.Finish returned, already padded to the page size, so the
// checksum matches what a later full-page read returns.
func buildOOB(bitmap, data []byte) []byte {
	oob := make([]byte, oobLen)
	copy(oob, bitmap)
	oob[oobTypeOff] = pageTypeRecord
	oob[oobMagicOff] = oobMagic[0]
	oob[oobMagicOff+1] = oobMagic[1]
	binary.LittleEndian.PutUint32(oob[oobCRCOff:oobCRCOff+4], crc32.ChecksumIEEE(data))
	return oob
}

// checkOOB verifies a scanned page's magic, type and CRC against its data.
// false means the page is torn, garbage, not a record page, or pre-dates the
// integrity layout, and must not be parsed.
func checkOOB(oob, data []byte) bool {
	if len(oob) < oobLen {
		return false
	}
	if oob[oobMagicOff] != oobMagic[0] || oob[oobMagicOff+1] != oobMagic[1] {
		return false
	}
	if oob[oobTypeOff] != pageTypeRecord {
		return false
	}
	return crc32.ChecksumIEEE(data) == binary.LittleEndian.Uint32(oob[oobCRCOff:oobCRCOff+4])
}
