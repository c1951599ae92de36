package core

import (
	"math"
	"math/bits"
)

// rowSet is PredictModule's table of distinct feature rows: an
// open-addressing hash table (linear probing) whose entries index the
// distinct rows, stored in first-seen order. Rows are keyed on their bits
// (math.Float64bits), not their values, so −0 and +0, or two NaNs with
// different payloads, are different rows: two rows share an entry only
// when they are bit-identical, which is exactly when a pure function of
// the bits — the compiled forest — must score them alike.
//
// The rows live in blocks of rowBlockRows rows, allocated as they fill, so
// a design with many distinct rows never copies the rows already stored.
type rowSet struct {
	width     int
	blockRows int         // rows per block
	slots     []int32     // 1 + a distinct row's index; 0 marks an empty slot
	hashes    []uint64    // each distinct row's hash, by index
	blocks    [][]float64 // the distinct rows, blockRows rows of width values each
}

// rowBlockRows is how many distinct rows one block of a rowSet holds. The
// benchmark designs have 51 to 212 distinct rows, one to four 150 KB
// blocks; blocks as large as a 256-row scoring batch (600 KB) would be
// mostly empty, and their memory is live for the whole call.
const rowBlockRows = 64

// newRowSet returns an empty set for rows of width values, its table sized
// for up to maxRows (> 0) distinct rows at a load factor of at most one
// half. Adding more than maxRows distinct rows is a caller bug.
func newRowSet(width, maxRows int) *rowSet {
	n := 8
	for n < 2*maxRows {
		n <<= 1
	}
	s := &rowSet{
		width:     width,
		blockRows: min(maxRows, rowBlockRows),
		slots:     make([]int32, n),
		hashes:    make([]uint64, 0, maxRows),
	}
	s.blocks = make([][]float64, 1, (maxRows+s.blockRows-1)/s.blockRows)
	s.blocks[0] = make([]float64, s.blockRows*width)
	return s
}

// len is the number of distinct rows added.
func (s *rowSet) len() int { return len(s.hashes) }

// row returns distinct row i, as stored.
func (s *rowSet) row(i int) []float64 {
	j := i % s.blockRows * s.width
	return s.blocks[i/s.blockRows][j : j+s.width : j+s.width]
}

// add returns the index of the distinct row bit-identical to row, storing
// a copy of row as a new distinct row if there is none. h must be
// hashRow(row): the table uses it only to pick the probe sequence and to
// skip entries cheaply, and confirms every candidate with a full bitwise
// compare, so colliding hashes cost probes, never a wrong index.
func (s *rowSet) add(row []float64, h uint64) int {
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		e := int(s.slots[i])
		if e == 0 {
			idx := len(s.hashes)
			if idx == len(s.blocks)*s.blockRows {
				s.blocks = append(s.blocks, make([]float64, s.blockRows*s.width))
			}
			copy(s.row(idx), row)
			s.slots[i] = int32(idx + 1)
			s.hashes = append(s.hashes, h)
			return idx
		}
		if s.hashes[e-1] == h && sameBits(s.row(e-1), row) {
			return e - 1
		}
	}
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// hashRow hashes a row's float64 bits. Four independent lanes, each a
// multiply-rotate over every fourth word, keep the multiplies off one
// serial dependency chain; a final avalanche spreads every input bit
// over the low bits the table indexes by.
func hashRow(row []float64) uint64 {
	const m = 0x9e3779b97f4a7c15
	a, b, c, d := uint64(0x243f6a8885a308d3), uint64(0x13198a2e03707344), uint64(0xa4093822299f31d0), uint64(0x082efa98ec4e6c89)
	i := 0
	for ; i+4 <= len(row); i += 4 {
		a = bits.RotateLeft64((a^math.Float64bits(row[i]))*m, 31)
		b = bits.RotateLeft64((b^math.Float64bits(row[i+1]))*m, 31)
		c = bits.RotateLeft64((c^math.Float64bits(row[i+2]))*m, 31)
		d = bits.RotateLeft64((d^math.Float64bits(row[i+3]))*m, 31)
	}
	for ; i < len(row); i++ {
		a = bits.RotateLeft64((a^math.Float64bits(row[i]))*m, 31)
	}
	h := a ^ bits.RotateLeft64(b, 16) ^ bits.RotateLeft64(c, 32) ^ bits.RotateLeft64(d, 48)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
