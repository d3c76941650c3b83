package server

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
)

// publishGate runs publish, a call that may build a snapshot and store it
// in s.snap, while a second goroutine waits for s.current() to change and
// then reads every value reachable from the new snapshot. Only publish
// runs meanwhile, and the reader is ordered after it by nothing but the
// atomic Store, so under -race a write that publish makes to the snapshot
// after its Store is reported as a DATA RACE naming the write. Without
// -race the reads check nothing.
func publishGate(s *Server, publish func()) {
	old := s.current()
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for s.current() == old {
			select {
			case <-stop:
				return
			default:
				runtime.Gosched()
			}
		}
		recordValues(reflect.ValueOf(s.current()))
	}()
	publish()
	if s.current() == old {
		close(stop) // nothing was published
	}
	<-done
}

// seenKey names one pointer or map a walk has reached. The type is part
// of the key because a struct and its first field share an address.
type seenKey struct {
	t reflect.Type
	p uintptr
}

// valueRecord is what one walk of a snapshot records: a hash of the values
// each pointer and map reachable from it holds, and the path by which the
// walk first reached it. A pointer or map held inside is hashed as its
// address and recorded on its own, and a map's entries are summed, so two
// walks of an unchanged snapshot record equal hashes whatever the order in
// which they meet its pointers and map entries.
type valueRecord struct {
	hash map[seenKey]uint64
	path map[seenKey]string
}

// recordValues reads and records every value reachable from root (a
// pointer), following pointers, slices, arrays, maps and interfaces. It
// does not follow pointers of the types in skip, and skips the types of
// sync and sync/atomic, which may be used concurrently.
func recordValues(root reflect.Value, skip ...reflect.Type) valueRecord {
	rec := valueRecord{hash: map[seenKey]uint64{}, path: map[seenKey]string{}}
	var work []reflect.Value
	follow := func(v reflect.Value, path string) {
		k := seenKey{v.Type(), v.Pointer()}
		if _, seen := rec.path[k]; !seen {
			rec.path[k] = path
			work = append(work, v)
		}
	}
	// hashValue adds v to h. owner is the path of the pointer or map that
	// holds v, field the name of the struct field v sits in, and key the
	// map key v sits under, if any: they name what v points to.
	var hashValue func(h *fnv64, v reflect.Value, owner, field string, key reflect.Value)
	hashValue = func(h *fnv64, v reflect.Value, owner, field string, key reflect.Value) {
		if p := v.Type().PkgPath(); p == "sync" || p == "sync/atomic" {
			return
		}
		switch v.Kind() {
		case reflect.Pointer, reflect.Map:
			h.word(uint64(v.Pointer()))
			if v.IsNil() || slices.Contains(skip, v.Type()) {
				return
			}
			path := owner
			if field != "" {
				path += "." + field
			}
			if key.IsValid() {
				path += "[" + fmt.Sprint(key) + "]"
			}
			follow(v, path)
		case reflect.Interface:
			if !v.IsNil() {
				h.str(v.Elem().Type().String())
				hashValue(h, v.Elem(), owner, field, key)
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				hashValue(h, v.Field(i), owner, v.Type().Field(i).Name, key)
			}
		case reflect.Slice, reflect.Array:
			if v.Kind() == reflect.Slice {
				h.word(uint64(v.Pointer()))
			}
			h.word(uint64(v.Len()))
			for i := 0; i < v.Len(); i++ {
				hashValue(h, v.Index(i), owner, field, key)
			}
		case reflect.String:
			h.str(v.String())
		case reflect.Bool:
			if v.Bool() {
				h.word(1)
			} else {
				h.word(0)
			}
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			h.word(uint64(v.Int()))
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			h.word(v.Uint())
		case reflect.Float32, reflect.Float64:
			h.word(math.Float64bits(v.Float()))
		case reflect.Complex64, reflect.Complex128:
			h.word(math.Float64bits(real(v.Complex())))
			h.word(math.Float64bits(imag(v.Complex())))
		default:
			// A func, channel or unsafe pointer: its address.
			h.word(uint64(v.Pointer()))
		}
	}
	follow(root, root.Type().String())
	for len(work) > 0 {
		v := work[len(work)-1]
		work = work[:len(work)-1]
		k := seenKey{v.Type(), v.Pointer()}
		h := newFNV64()
		if v.Kind() == reflect.Pointer {
			hashValue(&h, v.Elem(), rec.path[k], "", reflect.Value{})
		} else {
			var sum uint64
			for it := v.MapRange(); it.Next(); {
				entry := newFNV64()
				hashValue(&entry, it.Key(), rec.path[k], "", it.Key())
				hashValue(&entry, it.Value(), rec.path[k], "", it.Key())
				sum += uint64(entry)
			}
			h.word(sum)
			h.word(uint64(v.Len()))
		}
		rec.hash[k] = uint64(h)
	}
	return rec
}

// fnv64 is FNV-1a, taking a uint64 as one unit, so hashing a value
// allocates nothing.
type fnv64 uint64

func newFNV64() fnv64 { return 14695981039346656037 }

func (h *fnv64) word(u uint64) { *h = (*h ^ fnv64(u)) * 1099511628211 }

func (h *fnv64) str(s string) {
	h.word(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.word(uint64(s[i]))
	}
}

// changedSince lists, sorted, each pointer or map whose values differ
// between before and r, and each one that only one of them reaches.
func (r valueRecord) changedSince(before valueRecord) []string {
	var out []string
	for k, h := range before.hash {
		switch now, ok := r.hash[k]; {
		case !ok:
			out = append(out, fmt.Sprintf("%s (%s) is no longer reachable", before.path[k], k.t))
		case now != h:
			out = append(out, fmt.Sprintf("%s (%s) changed", before.path[k], k.t))
		}
	}
	for k := range r.hash {
		if _, ok := before.hash[k]; !ok {
			out = append(out, fmt.Sprintf("%s (%s) is new", r.path[k], k.t))
		}
	}
	sort.Strings(out)
	return out
}
