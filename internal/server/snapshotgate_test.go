package server

import (
	"reflect"
	"runtime"
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
		readAll(reflect.ValueOf(s.current()), map[seenKey]bool{})
	}()
	publish()
	if s.current() == old {
		close(stop) // nothing was published
	}
	<-done
}

// seenKey names one pointer or map already read. The type is part of the
// key because a struct and its first field share an address.
type seenKey struct {
	t reflect.Type
	p uintptr
}

// readAll reads every scalar and string reachable from v, following
// pointers, slices, arrays, maps and interfaces. It skips the types of
// sync and sync/atomic, which may be used concurrently.
func readAll(v reflect.Value, seen map[seenKey]bool) {
	if p := v.Type().PkgPath(); p == "sync" || p == "sync/atomic" {
		return
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Map:
		k := seenKey{v.Type(), v.Pointer()}
		if v.IsNil() || seen[k] {
			return
		}
		seen[k] = true
		if v.Kind() == reflect.Pointer {
			readAll(v.Elem(), seen)
			return
		}
		for it := v.MapRange(); it.Next(); {
			readAll(it.Key(), seen)
			readAll(it.Value(), seen)
		}
	case reflect.Interface:
		if !v.IsNil() {
			readAll(v.Elem(), seen)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			readAll(v.Field(i), seen)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			readAll(v.Index(i), seen)
		}
	default:
		// A scalar or a string header; a func, channel or unsafe pointer
		// is read as its pointer and not followed.
		_ = v.IsZero()
	}
}
