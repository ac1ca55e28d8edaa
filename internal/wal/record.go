package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
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
// a torn write surfaces as errShortFrame instead; replay treats both as
// the end of the recoverable prefix.
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
