package wal

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// readRecord is the stream-based record-at-a-time frame reader replay
// used before it decoded frames in place with decodeFrame. It stays as
// the tests' independent oracle: FuzzRecord and the record tests check
// Replay's records and byte accounting against it.
//
// It returns io.EOF at a clean frame boundary, io.ErrUnexpectedEOF for a
// frame cut short by a torn write, and errCorrupt for a frame that is
// structurally invalid or fails its checksum. consumed reports how many
// bytes of br the call used. scratch is reused across calls.
func readRecord(br *bufio.Reader, scratch []byte) (r Record, _ []byte, consumed int64, err error) {
	if cap(scratch) < frameHeaderLen {
		scratch = make([]byte, frameHeaderLen, 256)
	}
	hdr := scratch[:frameHeaderLen]
	n, err := io.ReadFull(br, hdr)
	consumed = int64(n)
	if err != nil {
		if err == io.EOF { // clean boundary: no bytes of a next frame exist
			return r, scratch, consumed, io.EOF
		}
		return r, scratch, consumed, io.ErrUnexpectedEOF
	}
	payloadLen := int(binary.LittleEndian.Uint32(hdr[:4]))
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if payloadLen < recordFixedLen || payloadLen > recordFixedLen+MaxKeyLen {
		return r, scratch, consumed, fmt.Errorf("%w: payload length %d", errCorrupt, payloadLen)
	}
	if cap(scratch) < payloadLen {
		scratch = make([]byte, payloadLen)
	}
	payload := scratch[:payloadLen]
	n, err = io.ReadFull(br, payload)
	consumed += int64(n)
	if err != nil {
		return r, scratch, consumed, io.ErrUnexpectedEOF
	}
	if crc32.Checksum(payload, castagnoli) != crc {
		return r, scratch, consumed, fmt.Errorf("%w: checksum mismatch", errCorrupt)
	}
	keyLen := int(binary.LittleEndian.Uint16(payload[24:26]))
	if recordFixedLen+keyLen != payloadLen {
		return r, scratch, consumed, fmt.Errorf("%w: key length %d disagrees with payload length %d", errCorrupt, keyLen, payloadLen)
	}
	r.Seq = binary.LittleEndian.Uint64(payload[0:8])
	r.UnixNanos = int64(binary.LittleEndian.Uint64(payload[8:16]))
	r.Wait = math.Float64frombits(binary.LittleEndian.Uint64(payload[16:24]))
	r.Key = string(payload[26 : 26+keyLen])
	return r, scratch, consumed, nil
}
