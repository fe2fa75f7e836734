package audit

// chunkLen is the number of elements in each chunk of a chunkSeq.
const chunkLen = 1024

// A chunkSeq is a sequence stored in fixed chunks of chunkLen elements.
// Appending never moves an element already written, so growth costs one
// chunk allocation per chunkLen appends instead of a copy of the whole
// sequence. DropFront releases whole chunks and zeroes the dropped
// elements of a chunk it keeps, so nothing dropped stays reachable.
//
// The zero value is an empty sequence.
type chunkSeq[T any] struct {
	chunks []*[chunkLen]T
	// off is the position of element 0 within chunks[0].
	off int
	n   int
}

// Len returns the number of elements.
func (s *chunkSeq[T]) Len() int { return s.n }

// At returns a pointer to element i, which must be in [0, Len()). The
// pointer stays valid until DropFront drops the element.
func (s *chunkSeq[T]) At(i int) *T {
	i += s.off
	return &s.chunks[i/chunkLen][i%chunkLen]
}

// Append adds v at the end.
func (s *chunkSeq[T]) Append(v T) {
	end := s.off + s.n
	if end == len(s.chunks)*chunkLen {
		s.chunks = append(s.chunks, new([chunkLen]T))
	}
	s.chunks[end/chunkLen][end%chunkLen] = v
	s.n++
}

// DropFront removes the first k elements (k <= Len()).
func (s *chunkSeq[T]) DropFront(k int) {
	from := s.off
	s.off += k
	s.n -= k
	whole := s.off / chunkLen
	if whole < len(s.chunks) {
		start := 0
		if whole == from/chunkLen {
			start = from % chunkLen
		}
		clear(s.chunks[whole][start : s.off%chunkLen])
	}
	kept := copy(s.chunks, s.chunks[whole:])
	clear(s.chunks[kept:])
	s.chunks = s.chunks[:kept]
	s.off %= chunkLen
}
