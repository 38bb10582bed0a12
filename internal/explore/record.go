package explore

// The store's on-disk encodings. Every snapshot and journal frame is
// uint32 LE body length, uint32 LE CRC-32 (IEEE) of the body, then the
// body; a body is a table (the block IDs the records after it are
// over) or one entry's record, in binrec's primitives. The snapshot's
// first frame is its header.

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"sort"

	"lfi/internal/binrec"
	"lfi/internal/coverage"
)

const (
	frameHeader   = 8
	snapshotMagic = "lfi-snapshot"
	// The first byte of a frame body says what it holds. Neither byte
	// starts a JSON value, so no JSON reader mistakes a record for one
	// of its own.
	tagTable  byte = 1
	tagRecord byte = 2
)

// blockTable is a strictly ascending block-ID table that entries'
// coverage bitsets are over. Entries sharing a table share the pointer.
type blockTable struct{ ids []string }

// newTable returns the table of the sorted, deduplicated ids.
func newTable(ids []string) *blockTable {
	ids = slices.Clone(ids)
	sort.Strings(ids)
	return &blockTable{ids: slices.Compact(ids)}
}

// Blocks returns the IDs of every block the run covered, sorted.
func (e Entry) Blocks() []string {
	var out []string
	e.cov.Range(func(i int) { out = append(out, e.table.ids[i]) })
	return out
}

// loadSnapshot loads the snapshot's records when its header names this
// format and system. A snapshot cut short loads as its prefix of whole
// records: the rest re-execute.
func (s *Store) loadSnapshot(data []byte) {
	end, ok := frameAt(data, 0)
	if !ok {
		return
	}
	text := string(data)
	r := binrec.NewReader(text[frameHeader:end])
	if r.Take(len(snapshotMagic)) != snapshotMagic || r.Uvarint() != storeFormat || r.String() != s.system {
		return
	}
	t := readTable(&r)
	if r.Finish() != nil {
		return
	}
	if len(s.entries) == 0 {
		s.entries = make(map[string]Entry, len(data)/128) // ~ its record count
	}
	s.replay(data, text, end, &decoder{table: t})
}

// frameAt returns the end of the frame at data[off:], and ok false
// when it is short or fails its checksum: a torn tail.
func frameAt(data []byte, off int) (int, bool) {
	if len(data)-off < frameHeader {
		return 0, false
	}
	n := binary.LittleEndian.Uint32(data[off:])
	if uint64(n) > uint64(len(data)-off-frameHeader) {
		return 0, false
	}
	end := off + frameHeader + int(n)
	return end, crc32.ChecksumIEEE(data[off+frameHeader:end]) == binary.LittleEndian.Uint32(data[off+4:])
}

// decoder is the state a sequence of frames is decoded in: the table
// records' coverage is over, and a slab their bitsets are cut from.
type decoder struct {
	table *blockTable
	slab  []uint64
}

// bitset returns a zeroed n-word bitset cut from the slab.
func (d *decoder) bitset(n int) coverage.Bitset {
	if len(d.slab) < n {
		d.slab = make([]uint64, max(n, 1024))
	}
	b := d.slab[:n:n]
	d.slab = d.slab[n:]
	return b
}

// replay loads the frames of data from off, in order, and returns the
// end of the last one it applied. text is data as a string, which the
// decoded strings share. The first frame that is short, fails its
// checksum or does not decode ends the replay: it is a torn tail, and
// nothing after it was acknowledged. A record's key without a region
// is skipped.
func (s *Store) replay(data []byte, text string, off int, d *decoder) int {
	for {
		end, ok := frameAt(data, off)
		if !ok {
			return off
		}
		body := text[off+frameHeader : end]
		switch {
		case body == "":
			return off
		case body[0] == tagTable:
			r := binrec.NewReader(body[1:])
			t := readTable(&r)
			if r.Finish() != nil {
				return off
			}
			d.table = t
		case body[0] == tagRecord:
			key, e, ok := decodeRecord(body[1:], d)
			if !ok {
				return off
			}
			if _, ok := regionOf(key); ok {
				s.load(key, e)
			}
		default:
			return off
		}
		off = end
	}
}

// appendFrame appends a frame around the body that body appends.
func appendFrame(b []byte, body func([]byte) []byte) []byte {
	start := len(b)
	b = body(append(b, make([]byte, frameHeader)...))
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-frameHeader))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.ChecksumIEEE(b[start+frameHeader:]))
	return b
}

// appendTable appends a table's encoding: its length, then its IDs.
func appendTable(b []byte, t *blockTable) []byte {
	b = binary.AppendUvarint(b, uint64(len(t.ids)))
	for _, id := range t.ids {
		b = binrec.AppendString(b, id)
	}
	return b
}

// appendRecord appends one entry's record frame, its coverage given as
// cov over the table the record is decoded with: key, name, failed
// flag, signature, injections, image stamp, then the coverage bitset as
// a little-endian byte string without trailing zero bytes.
func appendRecord(b []byte, key string, e *Entry, cov coverage.Bitset) []byte {
	return appendFrame(b, func(b []byte) []byte {
		b = binrec.AppendString(append(b, tagRecord), key)
		b = binrec.AppendString(b, e.Name)
		b = binrec.AppendString(binrec.AppendFlag(b, e.Failed), e.Signature)
		b = binary.AppendUvarint(b, uint64(e.Injections))
		b = binrec.AppendString(b, e.Image)
		n := len(cov) * 8
		for n > 0 && byte(cov[(n-1)/8]>>(8*((n-1)%8))) == 0 {
			n--
		}
		b = binary.AppendUvarint(b, uint64(n))
		for i := 0; i < n; i++ {
			b = append(b, byte(cov[i/8]>>(8*(i%8))))
		}
		return b
	})
}

// decodeRecord decodes a record body (after its tag) over d's table.
// ok is false for a body that does not decode whole or coverage the
// table cannot hold.
func decodeRecord(body string, d *decoder) (key string, e Entry, ok bool) {
	r := binrec.NewReader(body)
	key, e.Name = r.String(), r.String()
	e.Failed = r.Flag()
	e.Signature = r.String()
	e.Injections = int(r.Uvarint())
	e.Image = r.String()
	cov := r.String()
	if r.Finish() != nil {
		return "", Entry{}, false
	}
	if cov == "" {
		return key, e, true
	}
	t := d.table
	if t == nil || len(cov) > (len(t.ids)+7)/8 || (len(cov)*8 > len(t.ids) && cov[len(cov)-1]>>(len(t.ids)%8) != 0) {
		return "", Entry{}, false
	}
	e.table, e.cov = t, d.bitset((len(t.ids)+63)/64)
	for i := 0; i < len(cov); i++ {
		e.cov[i/8] |= uint64(cov[i]) << (8 * (i % 8))
	}
	return key, e, true
}

// readTable reads a table; IDs that are not strictly ascending fail
// it.
func readTable(r *binrec.Reader[string]) *blockTable {
	t := &blockTable{ids: make([]string, r.Count())}
	for i := range t.ids {
		t.ids[i] = r.String()
		if i > 0 && t.ids[i] <= t.ids[i-1] {
			r.Fail("block %q not after %q", t.ids[i], t.ids[i-1])
		}
	}
	return t
}
