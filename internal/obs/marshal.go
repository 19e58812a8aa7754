package obs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"

	"flatstore/internal/stats"
)

// Wire format of a Snapshot, the payload of the tcp stats op: the magic,
// then every field in declaration order, walked by type (little-endian):
//
//	bool, integer   one u64 word
//	string          u32 length, bytes
//	*Histogram      the sparse stats.AppendBinary form (36 B when idle)
//	array, struct   the elements or fields, in order
//	slice           u32 count, the elements
//
// The field order is the format and the magic names it: a peer built from
// other declarations is rejected rather than mis-decoded, and a change to
// the declared fields moves the magic. OBS6 was the first walked format,
// OBS7 added the tier's promotion-decision counters, OBS8 the cleaner's
// passes and the closed log chunks' utilisation, OBS9 the device's touched
// bytes; DESIGN.md §7 says why there is no compatibility shim.
const snapMagic uint32 = 0x4F425339 // "OBS9"

var le = binary.LittleEndian

// Marshal encodes the snapshot for the stats wire op.
func (s *Snapshot) Marshal() []byte {
	b := le.AppendUint32(make([]byte, 0, 1024), snapMagic)
	return appendWire(b, reflect.ValueOf(s).Elem())
}

func appendWire(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return le.AppendUint64(b, 1)
		}
		return le.AppendUint64(b, 0)
	case reflect.String:
		b = le.AppendUint32(b, uint32(v.Len()))
		return append(b, v.String()...)
	case reflect.Pointer:
		return v.Interface().(*stats.Histogram).AppendBinary(b)
	case reflect.Slice:
		b = le.AppendUint32(b, uint32(v.Len()))
		fallthrough
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = appendWire(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = appendWire(b, v.Field(i))
		}
		return b
	}
	if v.CanInt() {
		return le.AppendUint64(b, uint64(v.Int()))
	}
	return le.AppendUint64(b, v.Uint())
}

var (
	errShort = errors.New("obs: truncated snapshot payload")
	errRange = errors.New("obs: snapshot field out of range")
)

// UnmarshalSnapshot decodes what Marshal produced, and only that: a
// payload it accepts re-marshals to the same bytes.
func UnmarshalSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < 4 || le.Uint32(b) != snapMagic {
		return nil, errors.New("obs: not a snapshot payload")
	}
	s := &Snapshot{}
	rest, err := readWire(b[4:], reflect.ValueOf(s).Elem())
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("obs: %d bytes after the snapshot payload", len(rest))
	}
	return s, nil
}

// readWire decodes v from the front of b and returns the rest.
func readWire(b []byte, v reflect.Value) (rest []byte, err error) {
	switch v.Kind() {
	case reflect.String, reflect.Slice:
		if len(b) < 4 {
			return nil, errShort
		}
		n := uint64(le.Uint32(b))
		b = b[4:]
		if v.Kind() == reflect.String {
			if n > uint64(len(b)) {
				return nil, errShort
			}
			v.SetString(string(b[:n]))
			return b[n:], nil
		}
		// Grown one element at a time, so a corrupt count allocates no
		// more than the payload can fill.
		for i := 0; uint64(i) < n && err == nil; i++ {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			b, err = readWire(b, v.Index(i))
		}
		return b, err
	case reflect.Pointer:
		h, n, err := stats.DecodeHistogram(b)
		if err != nil {
			return nil, err
		}
		v.Set(reflect.ValueOf(h))
		return b[n:], nil
	case reflect.Array:
		for i := 0; i < v.Len() && err == nil; i++ {
			b, err = readWire(b, v.Index(i))
		}
		return b, err
	case reflect.Struct:
		for i := 0; i < v.NumField() && err == nil; i++ {
			b, err = readWire(b, v.Field(i))
		}
		return b, err
	}
	if len(b) < 8 {
		return nil, errShort
	}
	w := le.Uint64(b)
	switch {
	case v.Kind() == reflect.Bool:
		if w > 1 {
			return nil, errRange
		}
		v.SetBool(w == 1)
	case v.CanInt():
		if v.OverflowInt(int64(w)) {
			return nil, errRange
		}
		v.SetInt(int64(w))
	default:
		if v.OverflowUint(w) {
			return nil, errRange
		}
		v.SetUint(w)
	}
	return b[8:], nil
}
