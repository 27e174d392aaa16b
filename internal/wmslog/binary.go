package wmslog

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"
)

// Binary framing ("trace v2"): a compact length-prefixed record format
// for the same Entry the text log carries, designed for large-scale
// re-analysis where the ~704 ns / 11 allocs per parsed text line is the
// floor under `lsmload -check` and every characterization pass. The
// text form stays canonical — the committed md5 contracts are defined
// over the text rendering — and
// the binary form is a lossless carrier for it: text → binary → text
// is byte-identical for every canonical line.
//
// File layout:
//
//	file   := magic record*
//	magic  := 0xBF 'W' 'M' 'S' 'B' '1'          (6 bytes)
//	record := uvarint(len(payload)) payload
//
// A payload mirrors Entry in fixed field order — numeric fields first
// as varints, then the seven string fields:
//
//	payload := varint(unixSeconds)    // entry timestamp, 1 s resolution
//	           uvarint(centiCPU)      // ServerCPU in centi-percent
//	           uvarint(Duration) uvarint(Bytes)
//	           uvarint(AvgBandwidth) uvarint(PacketsLost)
//	           varint(Status) varint(ASNumber)
//	           str(ClientIP) str(PlayerID) str(ClientOS) str(ClientCPU)
//	           str(URIStem) str(Referer) str(Country)
//	str     := uvarint(0) uvarint(len) bytes    // first occurrence, interned
//	         | uvarint(dictIndex+1)             // back-reference
//
// Strings are dictionary-coded: the first occurrence travels inline and
// both sides append it to a shared dictionary (capped at binaryDictCap
// entries; beyond the cap strings stay inline and are not assigned, so
// encoder and decoder state never diverge). Access-log string fields
// repeat heavily — player IDs, URIs, OS/CPU classes, countries — so a
// steady-state record is all varints and back-references: decoding
// allocates no strings at all, which is where the ~10× parse win over
// the text decoder comes from.
//
// ServerCPU travels in centi-percent rather than float bits because the
// text form renders it as "%.2f": centi-units are exactly the precision
// the canonical format can express, making the text↔binary conversion
// bijective instead of merely close.

// binaryMagic identifies a framed binary wmslog stream. The first byte
// is deliberately outside ASCII so no text log (which starts with '#'
// or a digit) can collide with it.
var binaryMagic = []byte{0xbf, 'W', 'M', 'S', 'B', '1'}

// maxBinaryRecord bounds one record's payload; anything larger is a
// corrupt length prefix, not a log entry.
const maxBinaryRecord = 1 << 20

// binaryDictCap caps the shared string dictionary. Encoder and decoder
// apply the same cap, so their numbering always agrees; strings past
// the cap simply travel inline.
const binaryDictCap = 1 << 20

// Timestamp validity as unix-second bounds, so the per-record check is
// two integer compares instead of a calendar conversion. These are
// exactly Entry.Validate's rule — year within [0, 9999] and not the
// zero Time:
//
//	minBinaryUnix = time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC).Unix()
//	maxBinaryUnix = time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC).Unix()
//	zeroTimeUnix  = time.Time{}.Unix()
const (
	minBinaryUnix = -62167219200
	maxBinaryUnix = 253402300799
	zeroTimeUnix  = -62135596800
)

// dictEntry is one interned string with its cached charset verdict:
// whether it is clean for the mandatory text fields (no separator byte
// — Entry.Validate's charset rule, stringSafe), computed once at admission
// so per-record validation of repeated strings is an index lookup, not
// a scan. One struct per entry keeps the decode-side access a single
// cache line instead of two parallel slices.
type dictEntry struct {
	s    string
	safe bool
}

// BinaryDict is the shared string-interning state of one binary stream
// (one per file; records are not self-contained). The zero value is
// not ready — use NewBinaryDict.
type BinaryDict struct {
	ents []dictEntry
	// index is the encode-side reverse map, built lazily so a pure
	// decoder never pays for it.
	index map[string]uint32
}

// NewBinaryDict returns an empty dictionary.
func NewBinaryDict() *BinaryDict {
	return &BinaryDict{}
}

// admit appends s to the dictionary if there is room, mirroring on both
// the encode and decode side.
func (d *BinaryDict) admit(s string, safe bool) {
	if len(d.ents) >= binaryDictCap {
		return
	}
	if d.index != nil {
		d.index[s] = uint32(len(d.ents))
	}
	d.ents = append(d.ents, dictEntry{s: s, safe: safe})
}

// lookup returns the dictionary index of s on the encode side.
func (d *BinaryDict) lookup(s string) (uint32, bool) {
	if d.index == nil {
		// First encode use: build the reverse map for whatever the
		// dictionary already holds (a dict used decode-first).
		d.index = make(map[string]uint32, len(d.ents)+64)
		for i, v := range d.ents {
			d.index[v.s] = uint32(i)
		}
	}
	idx, ok := d.index[s]
	return idx, ok
}

// AppendEntryBinary appends one framed binary record for e to b —
// uvarint payload length, then the payload — threading string
// interning through d, and returns the extended slice. It is the
// binary twin of AppendEntry: steady state (all strings already in the
// dictionary) it performs no allocation beyond growing b.
//
// The entry is not validated here; BinaryWriter.Write validates before
// encoding, exactly like the text Writer.
//
//lsm:hotpath
func AppendEntryBinary(b []byte, e *Entry, d *BinaryDict) []byte {
	mark := len(b)
	b = binary.AppendVarint(b, e.Timestamp.Unix())
	b = binary.AppendUvarint(b, uint64(centiOf(e.ServerCPU)))
	b = binary.AppendUvarint(b, uint64(e.Duration))
	b = binary.AppendUvarint(b, uint64(e.Bytes))
	b = binary.AppendUvarint(b, uint64(e.AvgBandwidth))
	b = binary.AppendUvarint(b, uint64(e.PacketsLost))
	b = binary.AppendVarint(b, int64(e.Status))
	b = binary.AppendVarint(b, int64(e.ASNumber))
	b = appendBinaryString(b, e.ClientIP, d)
	b = appendBinaryString(b, e.PlayerID, d)
	b = appendBinaryString(b, e.ClientOS, d)
	b = appendBinaryString(b, e.ClientCPU, d)
	b = appendBinaryString(b, e.URIStem, d)
	b = appendBinaryString(b, e.Referer, d)
	b = appendBinaryString(b, e.Country, d)

	// Frame: insert the uvarint payload length before the payload. The
	// payload was appended first because its length is unknown until
	// encoded; the insertion is one bounded memmove, no allocation.
	var pre [binary.MaxVarintLen64]byte
	pn := binary.PutUvarint(pre[:], uint64(len(b)-mark))
	b = append(b, pre[:pn]...)
	copy(b[mark+pn:], b[mark:len(b)-pn])
	copy(b[mark:], pre[:pn])
	return b
}

// appendBinaryString encodes one dictionary-coded string field.
//
//lsm:hotpath
func appendBinaryString(b []byte, s string, d *BinaryDict) []byte {
	if idx, ok := d.lookup(s); ok {
		return binary.AppendUvarint(b, uint64(idx)+1)
	}
	b = binary.AppendUvarint(b, 0)
	b = binary.AppendUvarint(b, uint64(len(s)))
	b = append(b, s...)
	d.admit(s, stringSafe(s))
	return b
}

// centiOf renders ServerCPU at the text format's precision: the
// centi-percent value "%.2f" would print. The fast path is the text
// encoder's own (exactCenti: every value a parsed log or the simulator
// carries); the slow path formats through the same strconv rounding
// the text encoder falls back to, so the two encoders can never
// disagree on the last digit.
func centiOf(f float64) int64 {
	if k, ok := exactCenti(f); ok {
		return int64(k)
	}
	var scratch [32]byte
	s := strconv.AppendFloat(scratch[:0], f, 'f', 2, 64)
	whole, err := atoi64(s[:len(s)-3])
	if err != nil {
		return int64(math.Round(f * 100)) // non-finite: unreachable for validated entries
	}
	frac := int64(s[len(s)-2]-'0')*10 + int64(s[len(s)-1]-'0')
	if s[0] == '-' {
		return whole*100 - frac
	}
	return whole*100 + frac
}

// ParseBinary decodes one record payload (the bytes after the length
// prefix) into *e, overwriting every field and threading string
// interning through d. It enforces the same invariants Entry.Validate
// does — mandatory fields non-empty and space-free, non-negative
// transfer statistics and status, a 32-bit AS number, ServerCPU within
// [0,100], non-zero timestamp —
// inline, using the dictionary's cached charset verdicts so repeated
// strings are validated by index lookup, not by rescanning.
//
// Any structural violation — short payload, trailing bytes, an
// out-of-range dictionary reference, an overlong string — is ErrFormat.
//
//lsm:hotpath
func ParseBinary(e *Entry, rec []byte, d *BinaryDict) error {
	unix, rec, ok := takeVarint(rec)
	if !ok || unix < minBinaryUnix || unix > maxBinaryUnix || unix == zeroTimeUnix {
		return errBinaryField("timestamp")
	}
	e.Timestamp = time.Unix(unix, 0).UTC()
	centi, rec, ok := takeUvarint(rec)
	if !ok || centi > 10000 {
		return errBinaryField("s-cpu-util")
	}
	e.ServerCPU = float64(centi) / 100
	var v uint64
	if v, rec, ok = takeUvarint(rec); !ok || v > math.MaxInt64 {
		return errBinaryField("x-duration")
	}
	e.Duration = int64(v)
	if v, rec, ok = takeUvarint(rec); !ok || v > math.MaxInt64 {
		return errBinaryField("sc-bytes")
	}
	e.Bytes = int64(v)
	if v, rec, ok = takeUvarint(rec); !ok || v > math.MaxInt64 {
		return errBinaryField("avgbandwidth")
	}
	e.AvgBandwidth = int64(v)
	if v, rec, ok = takeUvarint(rec); !ok || v > math.MaxInt64 {
		return errBinaryField("c-pkts-lost")
	}
	e.PacketsLost = int64(v)
	var sv int64
	if sv, rec, ok = takeVarint(rec); !ok || sv < 0 || sv > math.MaxInt32 {
		return errBinaryField("sc-status")
	}
	e.Status = int(sv)
	if sv, rec, ok = takeVarint(rec); !ok || sv < 0 || sv > math.MaxUint32 {
		return errBinaryField("s-as")
	}
	e.ASNumber = int(sv)

	var safe bool
	if e.ClientIP, safe, rec, ok = takeBinaryString(rec, d); !ok || e.ClientIP == "" || !safe {
		return errBinaryField("c-ip")
	}
	if e.PlayerID, safe, rec, ok = takeBinaryString(rec, d); !ok || e.PlayerID == "" || !safe {
		return errBinaryField("c-playerid")
	}
	if e.ClientOS, _, rec, ok = takeBinaryString(rec, d); !ok {
		return errBinaryField("c-os")
	}
	if e.ClientCPU, _, rec, ok = takeBinaryString(rec, d); !ok {
		return errBinaryField("c-cpu")
	}
	if e.URIStem, safe, rec, ok = takeBinaryString(rec, d); !ok || e.URIStem == "" || !safe {
		return errBinaryField("cs-uri-stem")
	}
	if e.Referer, _, rec, ok = takeBinaryString(rec, d); !ok {
		return errBinaryField("cs(Referer)")
	}
	if e.Country, _, rec, ok = takeBinaryString(rec, d); !ok {
		return errBinaryField("s-country")
	}
	if len(rec) != 0 {
		return errBinaryTrailing()
	}
	return nil
}

// takeVarint consumes one zigzag varint from rec. The one-byte case is
// kept small enough to inline at every call site; multi-byte values
// (timestamps, Status, ASNumber) take the outlined slow path.
//
//lsm:hotpath
func takeVarint(rec []byte) (int64, []byte, bool) {
	if len(rec) != 0 && rec[0] < 0x80 {
		ux := uint64(rec[0])
		x := int64(ux >> 1)
		if ux&1 != 0 {
			x = ^x
		}
		return x, rec[1:], true
	}
	return takeVarintSlow(rec)
}

//lsm:hotpath
func takeVarintSlow(rec []byte) (int64, []byte, bool) {
	if len(rec) >= 2 && rec[1] < 0x80 {
		ux := uint64(rec[0]&0x7f) | uint64(rec[1])<<7
		x := int64(ux >> 1)
		if ux&1 != 0 {
			x = ^x
		}
		return x, rec[2:], true
	}
	v, n := binary.Varint(rec)
	if n <= 0 {
		return 0, rec, false
	}
	return v, rec[n:], true
}

// takeUvarint consumes one uvarint from rec. String back-references,
// packet counts, and CPU centi-units fit one byte in the common case;
// that path is kept small enough to inline at every call site.
//
//lsm:hotpath
func takeUvarint(rec []byte) (uint64, []byte, bool) {
	if len(rec) != 0 && rec[0] < 0x80 {
		return uint64(rec[0]), rec[1:], true
	}
	return takeUvarintSlow(rec)
}

//lsm:hotpath
func takeUvarintSlow(rec []byte) (uint64, []byte, bool) {
	if len(rec) >= 2 && rec[1] < 0x80 {
		return uint64(rec[0]&0x7f) | uint64(rec[1])<<7, rec[2:], true
	}
	v, n := binary.Uvarint(rec)
	if n <= 0 {
		return 0, rec, false
	}
	return v, rec[n:], true
}

// takeBinaryString consumes one dictionary-coded string. safe reports
// the cached charset verdict (stringSafe) for the string.
//
//lsm:hotpath
func takeBinaryString(rec []byte, d *BinaryDict) (s string, safe bool, rest []byte, ok bool) {
	code, rec, ok := takeUvarint(rec)
	if !ok {
		return "", false, rec, false
	}
	if code > 0 {
		idx := code - 1
		if idx >= uint64(len(d.ents)) {
			return "", false, rec, false
		}
		de := &d.ents[idx]
		return de.s, de.safe, rec, true
	}
	ln, rec, ok := takeUvarint(rec)
	if !ok || ln > uint64(len(rec)) {
		return "", false, rec, false
	}
	s = string(rec[:ln])
	safe = stringSafe(s)
	d.admit(s, safe)
	return s, safe, rec[ln:], true
}

// The decode error constructors live outside the hot path: they run
// only on malformed input, where the parse is about to abort anyway.

func errBinaryField(field string) error {
	return fmt.Errorf("%w: binary field %s", ErrFormat, field)
}

func errBinaryTrailing() error {
	return fmt.Errorf("%w: trailing bytes in binary record", ErrFormat)
}

// BinaryWriter streams entries in the framed binary format, magic
// header first. It mirrors Writer: entries are validated and fully
// rendered before Write returns, never retained.
type BinaryWriter struct {
	w          *bufio.Writer
	dict       *BinaryDict
	buf        []byte // per-writer scratch record, reused across entries
	count      int64
	wroteMagic bool
}

// NewBinaryWriter wraps w.
func NewBinaryWriter(w io.Writer) *BinaryWriter {
	return &BinaryWriter{
		w:    bufio.NewWriterSize(w, 1<<16),
		dict: NewBinaryDict(),
		buf:  make([]byte, 0, 256),
	}
}

// reset points the writer at w as if it were new — the magic is written
// again before the next entry, with a fresh dictionary, and the count
// restarts — keeping its write buffer.
func (bw *BinaryWriter) reset(w io.Writer) {
	bw.w.Reset(w)
	bw.dict = NewBinaryDict()
	bw.wroteMagic = false
	bw.count = 0
}

// Write validates and appends one entry.
func (bw *BinaryWriter) Write(e *Entry) error {
	if err := e.Validate(); err != nil {
		return err
	}
	if !bw.wroteMagic {
		if _, err := bw.w.Write(binaryMagic); err != nil {
			return fmt.Errorf("wmslog: write binary magic: %w", err)
		}
		bw.wroteMagic = true
	}
	bw.buf = AppendEntryBinary(bw.buf[:0], e, bw.dict)
	if _, err := bw.w.Write(bw.buf); err != nil {
		return fmt.Errorf("wmslog: write binary entry: %w", err)
	}
	bw.count++
	return nil
}

// Count returns the number of entries written.
func (bw *BinaryWriter) Count() int64 { return bw.count }

// Flush flushes buffered data to the underlying writer.
func (bw *BinaryWriter) Flush() error { return bw.w.Flush() }
