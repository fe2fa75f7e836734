package ifc

import (
	"strings"
	"sync"
)

// Label interning (hash-consing). Every distinct tag set is represented by
// exactly one shared, immutable labelRec, so that
//
//   - equality is a pointer (or key) comparison,
//   - the canonical string form is rendered once, ever, per distinct label
//     (audit hashing and error messages reuse it for free), and
//   - flow-check caches can key on compact uint64 label keys instead of
//     rescanning tag sets.
//
// Tags are likewise interned into dense uint32 IDs; a label carries the IDs
// of its tags aligned with its sorted tag slice, letting the set operations
// (Subset, Union, Intersect, Diff) detect per-position equality with an
// integer compare and fall back to a string compare only to decide order at
// genuine mismatches.
//
// The tables grow with the number of distinct tags and labels ever seen in
// the process. Tags name security concerns, which are few and long-lived in
// the paper's model, so the tables are effectively bounded in practice; the
// per-decision flow caches built on top of them are strictly bounded.

// labelRec is the shared representation of one distinct label. Immutable
// after construction.
type labelRec struct {
	tags []Tag    // sorted ascending, deduplicated
	ids  []uint32 // ids[i] is the intern ID of tags[i]
	key  uint64   // unique per distinct label; 0 is reserved for the empty label
	str  string   // canonical form "{a,b,c}", also the intern-table key
}

var interned = struct {
	mu     sync.RWMutex
	tagIDs map[Tag]uint32
	labels map[string]*labelRec
	// nextTag/nextLabel are the next IDs to assign; 0 values are reserved.
	nextTag   uint32
	nextLabel uint64
}{
	tagIDs: make(map[Tag]uint32),
	labels: make(map[string]*labelRec),
}

// canonicalString renders the canonical "{a,b,c}" form of a sorted tag set.
func canonicalString(tags []Tag) string {
	var b strings.Builder
	n := 1 + len(tags)
	for _, t := range tags {
		n += len(t)
	}
	b.Grow(n)
	b.WriteByte('{')
	for i, t := range tags {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(string(t))
	}
	b.WriteByte('}')
	return b.String()
}

// internLabel returns the shared record for the given sorted, deduplicated
// tag set, creating it on first sight. ids, when non-nil, must be aligned
// with tags (callers that merged two interned labels already know them);
// nil means "look them up". Every tag must be valid: the canonical form is
// the table key, so an interned tag holding a delimiter would own the key of
// a different tag set. The caller must not retain or mutate tags after the
// call: on first sight the slice is adopted into the shared record.
func internLabel(tags []Tag, ids []uint32) *labelRec {
	if len(tags) == 0 {
		return nil
	}
	str := canonicalString(tags)
	interned.mu.RLock()
	rec := interned.labels[str]
	interned.mu.RUnlock()
	if rec != nil {
		return rec
	}
	interned.mu.Lock()
	defer interned.mu.Unlock()
	if rec := interned.labels[str]; rec != nil {
		return rec
	}
	if ids == nil {
		ids = make([]uint32, len(tags))
		for i, t := range tags {
			ids[i] = internTagLocked(t)
		}
	}
	interned.nextLabel++
	rec = &labelRec{tags: tags, ids: ids, key: interned.nextLabel, str: str}
	interned.labels[str] = rec
	return rec
}

// lookupCanonical returns the interned label whose canonical form is
// exactly s, or nil. A hit costs no allocation.
func lookupCanonical(s string) *labelRec {
	interned.mu.RLock()
	rec := interned.labels[s]
	interned.mu.RUnlock()
	return rec
}

// lookupCanonicalBytes is lookupCanonical over a byte slice; indexing the
// map with string(b) does not copy b.
func lookupCanonicalBytes(b []byte) *labelRec {
	interned.mu.RLock()
	rec := interned.labels[string(b)]
	interned.mu.RUnlock()
	return rec
}

// internTagLocked assigns (or returns) the intern ID of a tag. Callers must
// hold interned.mu for writing.
func internTagLocked(t Tag) uint32 {
	if id, ok := interned.tagIDs[t]; ok {
		return id
	}
	interned.nextTag++
	interned.tagIDs[t] = interned.nextTag
	return interned.nextTag
}
