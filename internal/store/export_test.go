package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// tamper rewrites one byte in the body of the index'th record
// of a segment and fixes the frame CRC to match — a coordinated
// tamper that per-record checksums cannot catch, which is exactly the
// class of damage the Merkle layer exists to detect. It returns the
// tampered record's key. The store must not be open.
func tamper(dir string, segID uint64, index int) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("%08d.seg", segID))
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	off, n := 0, 0
	for {
		if off+recHeaderLen > len(data) {
			return "", fmt.Errorf("store: segment %08d has no record %d", segID, index)
		}
		keyLen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		valLen := int(binary.LittleEndian.Uint32(data[off+4 : off+8]))
		kind := data[off+8]
		size := recHeaderLen + keyLen + valLen + 4
		if off+size > len(data) {
			return "", fmt.Errorf("store: segment %08d truncated before record %d", segID, index)
		}
		if n == index {
			bodyStart := off + recHeaderLen + keyLen
			if kind == recKindPutV {
				bodyStart += 1 + int(data[bodyStart])
			}
			if kind == recKindDel || bodyStart >= off+size-4 {
				return "", fmt.Errorf("store: record %d of segment %08d has no body to tamper", index, segID)
			}
			data[bodyStart] ^= 0x01
			crc := crc32.Checksum(data[off:off+size-4], crcTable)
			binary.LittleEndian.PutUint32(data[off+size-4:off+size], crc)
			key := string(data[off+recHeaderLen : off+recHeaderLen+keyLen])
			return key, os.WriteFile(path, data, 0o644)
		}
		off += size
		n++
	}
}

// compact forces a log rewrite, which normally runs when the log
// exceeds MaxBytes.
func (s *Store) compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}
