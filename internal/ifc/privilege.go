package ifc

import (
	"errors"
	"fmt"
	"strings"
)

// Privileges are the four privilege tag sets an active entity may hold in
// addition to its security context (Section 6, "Privileges for label
// change"): the rights to add or remove specific tags to or from its own
// secrecy and integrity labels.
//
//   - Removing a secrecy tag (using RemoveSecrecy) declassifies.
//   - Adding an integrity tag (using AddIntegrity) endorses.
//
// The zero value holds no privileges. Privileges are never inherited on
// creation; they are passed explicitly, typically encoded in attribute
// certificates (see package pki) or granted by a domain's tag authority.
type Privileges struct {
	AddSecrecy      Label // tags the holder may add to S (confine itself further)
	RemoveSecrecy   Label // tags the holder may remove from S (declassify)
	AddIntegrity    Label // tags the holder may add to I (endorse)
	RemoveIntegrity Label // tags the holder may remove from I
}

// NoPrivileges is the empty privilege set.
var NoPrivileges = Privileges{}

// ErrPrivilege is the sentinel wrapped by PrivilegeError.
var ErrPrivilege = errors.New("ifc: missing privilege")

// PrivilegeError reports a label transition that the holder's privileges do
// not authorise. It wraps ErrPrivilege.
type PrivilegeError struct {
	// Op names the offending operation: "add-secrecy", "remove-secrecy",
	// "add-integrity" or "remove-integrity".
	Op string
	// Tags are the tags the transition needed but the privileges lack.
	Tags Label
}

// Error implements error.
func (e *PrivilegeError) Error() string {
	return fmt.Sprintf("ifc: missing privilege %s for tags %s", e.Op, e.Tags)
}

// Unwrap lets errors.Is match ErrPrivilege.
func (e *PrivilegeError) Unwrap() error { return ErrPrivilege }

// IsEmpty reports whether the set confers no rights at all.
func (p Privileges) IsEmpty() bool {
	return p.AddSecrecy.IsEmpty() && p.RemoveSecrecy.IsEmpty() &&
		p.AddIntegrity.IsEmpty() && p.RemoveIntegrity.IsEmpty()
}

// Union returns the combined privileges of p and other.
func (p Privileges) Union(other Privileges) Privileges {
	return Privileges{
		AddSecrecy:      p.AddSecrecy.Union(other.AddSecrecy),
		RemoveSecrecy:   p.RemoveSecrecy.Union(other.RemoveSecrecy),
		AddIntegrity:    p.AddIntegrity.Union(other.AddIntegrity),
		RemoveIntegrity: p.RemoveIntegrity.Union(other.RemoveIntegrity),
	}
}

// Restrict returns the privileges of p limited to those also held by other,
// used when delegating: a delegator may pass on at most what it holds.
func (p Privileges) Restrict(other Privileges) Privileges {
	return Privileges{
		AddSecrecy:      p.AddSecrecy.Intersect(other.AddSecrecy),
		RemoveSecrecy:   p.RemoveSecrecy.Intersect(other.RemoveSecrecy),
		AddIntegrity:    p.AddIntegrity.Intersect(other.AddIntegrity),
		RemoveIntegrity: p.RemoveIntegrity.Intersect(other.RemoveIntegrity),
	}
}

// AuthoriseTransition checks whether these privileges permit an entity to
// move from one security context to another. Every tag added or removed on
// either label must be covered by the corresponding privilege set. It
// returns nil when the transition is authorised and a *PrivilegeError
// describing the first uncovered change otherwise.
func (p Privileges) AuthoriseTransition(from, to SecurityContext) error {
	if added := to.Secrecy.Diff(from.Secrecy); !added.Subset(p.AddSecrecy) {
		return &PrivilegeError{Op: "add-secrecy", Tags: added.Diff(p.AddSecrecy)}
	}
	if removed := from.Secrecy.Diff(to.Secrecy); !removed.Subset(p.RemoveSecrecy) {
		return &PrivilegeError{Op: "remove-secrecy", Tags: removed.Diff(p.RemoveSecrecy)}
	}
	if added := to.Integrity.Diff(from.Integrity); !added.Subset(p.AddIntegrity) {
		return &PrivilegeError{Op: "add-integrity", Tags: added.Diff(p.AddIntegrity)}
	}
	if removed := from.Integrity.Diff(to.Integrity); !removed.Subset(p.RemoveIntegrity) {
		return &PrivilegeError{Op: "remove-integrity", Tags: removed.Diff(p.RemoveIntegrity)}
	}
	// Obligation facets: narrowing is free (self-confinement), widening
	// sheds a legal constraint and therefore rides the declassification
	// privilege on the facet tags being allowed anew (see facet.go).
	if err := authoriseFacet("widen-jurisdiction", from.Jurisdiction, to.Jurisdiction, p.RemoveSecrecy); err != nil {
		return err
	}
	if err := authoriseFacet("widen-purpose", from.Purpose, to.Purpose, p.RemoveSecrecy); err != nil {
		return err
	}
	return nil
}

// CanDeclassify reports whether the holder may remove the tag from its
// secrecy label.
func (p Privileges) CanDeclassify(t Tag) bool { return p.RemoveSecrecy.Has(t) }

// CanEndorse reports whether the holder may add the tag to its integrity
// label.
func (p Privileges) CanEndorse(t Tag) bool { return p.AddIntegrity.Has(t) }

// String renders a compact human-readable form such as
// "S+{a} S-{b} I+{c} I-∅".
func (p Privileges) String() string {
	var b strings.Builder
	b.WriteString("S+")
	b.WriteString(p.AddSecrecy.String())
	b.WriteString(" S-")
	b.WriteString(p.RemoveSecrecy.String())
	b.WriteString(" I+")
	b.WriteString(p.AddIntegrity.String())
	b.WriteString(" I-")
	b.WriteString(p.RemoveIntegrity.String())
	return b.String()
}

// OwnerPrivileges returns the full privilege set over the given tags: the
// right to add and remove each of them on both labels. Tag creation confers
// ownership (Section 6, "Tag Ownership"), and ownership confers these
// rights, which the owner may then delegate piecemeal. It panics on an
// invalid tag, like MustLabel.
func OwnerPrivileges(tags ...Tag) Privileges {
	l := MustLabel(tags...)
	return Privileges{AddSecrecy: l, RemoveSecrecy: l, AddIntegrity: l, RemoveIntegrity: l}
}
