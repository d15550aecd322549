package wire

import "slices"

// The binary ingest frame (Content-Type application/x-tp-items): the
// length-prefixed item-batch encoding POST /ingest accepts alongside
// JSON (DESIGN.md §8). It rides the same Reader/Writer
// substrate as the snapshot codec, so the same invariants hold — one
// batch has exactly one encoding, and the decoder faces hostile bytes
// with the allocation bounds wirebound polices: the item count is
// validated against the bytes remaining (Reader.Count) before any
// slice grows.
//
// Layout:
//
//	magic   "TPIB" (4 bytes)
//	version u8     (ItemsFrameVersion)
//	count   uvarint
//	items   count × zig-zag varint
//
// The frame must consume its buffer exactly: trailing bytes are a
// decode error, so a concatenation of frames can never be mistaken
// for one batch.

// ItemsMagic opens every binary ingest frame. Distinct from the
// snapshot magic on purpose: a snapshot POSTed to /ingest (or a frame
// handed to a snapshot decoder) must fail on the first four bytes,
// not deep inside a payload that happens to parse.
var ItemsMagic = [4]byte{'T', 'P', 'I', 'B'}

// ItemsFrameVersion is the binary ingest frame version. Bump only
// with a decoder that still reads every older version.
const ItemsFrameVersion = 1

// itemsFrameHeaderLen is the fixed prefix before the count: magic
// plus version byte.
const itemsFrameHeaderLen = len(ItemsMagic) + 1

// AppendItemsFrame appends the binary ingest frame for items to dst
// and returns the extended slice — the allocation-free encoder for
// callers that reuse a request buffer across batches.
func AppendItemsFrame(dst []byte, items []int64) []byte {
	w := Writer{buf: dst}
	w.Raw(ItemsMagic[:])
	w.U8(ItemsFrameVersion)
	w.Uvarint(uint64(len(items)))
	for _, it := range items {
		w.Varint(it)
	}
	return w.Bytes()
}

// EncodeItems returns the binary ingest frame for items.
func EncodeItems(items []int64) []byte {
	// Worst case one varint is 10 bytes; typical small items take 1–2,
	// so size for the header plus two bytes per item and let append
	// grow on heavy-tailed batches.
	return AppendItemsFrame(make([]byte, 0, itemsFrameHeaderLen+binaryItemsSizeHint(len(items))), items)
}

func binaryItemsSizeHint(n int) int { return 2*n + 8 }

// ItemsFrameCount validates a binary ingest frame without decoding it
// and returns its item count. This is the cheap pre-pass the serving
// layer runs before a frame may touch shared state: a frame that
// passes decodes in full, so a truncated or hostile body is rejected
// before a single item of it leaks anywhere (DecodeItemsFrame still
// rolls back on error for callers that skip the pre-pass).
func ItemsFrameCount(data []byte) (int, error) {
	r := NewReader(data)
	n := readItemsHeader(r)
	for i := 0; i < n; i++ {
		r.Varint()
	}
	if err := r.Done(); err != nil {
		return 0, err
	}
	return n, nil
}

// DecodeItemsFrame decodes a binary ingest frame, appending its items
// to dst and returning the extended slice. On any decode error dst is
// returned at its original length: a partial frame never leaks items
// into the destination, which lets callers decode straight into a
// shared batch buffer.
func DecodeItemsFrame(dst []int64, data []byte) ([]int64, error) {
	orig := len(dst)
	r := NewReader(data)
	n := readItemsHeader(r)
	dst = slices.Grow(dst, n)
	for i := 0; i < n; i++ {
		dst = append(dst, r.Varint())
	}
	if err := r.Done(); err != nil {
		return dst[:orig], err
	}
	return dst, nil
}

// readItemsHeader consumes the frame preamble and returns the
// validated item count (0 with a sticky Reader error on a bad frame).
// A varint item is at least one byte, so Count(1) bounds the count by
// the bytes remaining — the wirebound allocation guard.
func readItemsHeader(r *Reader) int {
	m := r.Raw(len(ItemsMagic))
	if r.err == nil && string(m) != string(ItemsMagic[:]) {
		r.fail("bad ingest frame magic %q", m)
		return 0
	}
	v := r.U8()
	if r.err == nil && v != ItemsFrameVersion {
		r.fail("unsupported ingest frame version %d (decoder speaks %d)", v, ItemsFrameVersion)
		return 0
	}
	return r.Count(1)
}
