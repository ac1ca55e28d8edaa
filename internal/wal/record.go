package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Record is one durable observation: a stream key, the observed wait, and
// the wall-clock time it was recorded. Seq is the log sequence number the
// WAL assigned at append time; it is strictly increasing across the whole
// log (gaps are allowed — a failed append consumes its sequence number).
type Record struct {
	Seq       uint64
	Key       string
	Wait      float64
	UnixNanos int64
}

// Frame layout, little-endian:
//
//	u32 payload length
//	u32 CRC32C (Castagnoli) of the payload
//	payload:
//	    u64 seq
//	    u64 unix nanoseconds (two's complement)
//	    u64 wait (IEEE 754 bits)
//	    u16 key length
//	    key bytes
//
// The checksum covers the payload only; the length field is validated by
// range (a frame whose length falls outside [recordFixedLen,
// recordFixedLen+MaxKeyLen] is corrupt by construction), so a torn or
// bit-flipped frame is detected either by the range check, by the key
// length disagreeing with the payload length, or by the CRC.
const (
	frameHeaderLen = 8
	recordFixedLen = 8 + 8 + 8 + 2

	// MaxKeyLen is the longest stream key a record can carry.
	MaxKeyLen = 1 << 12
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errCorrupt marks a frame that is present but fails validation (bad
// length, inconsistent key length, or CRC mismatch). A frame cut short by
// a torn write surfaces as io.ErrUnexpectedEOF instead; replay treats both
// as the end of the recoverable prefix.
var errCorrupt = errors.New("wal: corrupt record frame")

// appendRecord appends r's framed encoding to buf and returns the
// extended slice. The caller validates len(r.Key) <= MaxKeyLen.
func appendRecord(buf []byte, r Record) []byte {
	payloadLen := recordFixedLen + len(r.Key)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payloadLen))
	crcAt := len(buf)
	buf = binary.LittleEndian.AppendUint32(buf, 0) // CRC placeholder
	payloadAt := len(buf)
	buf = binary.LittleEndian.AppendUint64(buf, r.Seq)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(r.UnixNanos))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Wait))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(r.Key)))
	buf = append(buf, r.Key...)
	crc := crc32.Checksum(buf[payloadAt:], castagnoli)
	binary.LittleEndian.PutUint32(buf[crcAt:], crc)
	return buf
}

// readRecord decodes the next frame from br. It returns io.EOF at a clean
// frame boundary, io.ErrUnexpectedEOF for a frame cut short by a torn
// write, and errCorrupt for a frame that is structurally invalid or fails
// its checksum. consumed reports how many bytes of br the call used, so
// replay can account for a bad frame's own bytes when reporting what it
// dropped. scratch is reused across calls to avoid per-record allocation:
// it takes the frame header, then the payload, so the only allocation a
// record costs is its key string.
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
