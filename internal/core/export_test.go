package core

import (
	"fmt"
	"reflect"
	"unsafe"

	"upcxx/internal/gasnet"
	"upcxx/internal/pad"
)

// HotSpan is one address range a rank's own goroutine writes per
// operation, named for test diagnostics.
type HotSpan struct {
	What   string
	Lo, Hi uintptr // [Lo, Hi)
}

// HotSpans lists the per-operation-written memory of rank me for the
// external isolation test (package core_test, which can import the
// wire and hier launchers of internal/spmd without a cycle): every pad
// bracket of the rank handle, its endpoint, aggregator, conduit(s) and
// transport endpoint (its send side), the pad.Slice backing arrays —
// the finish stack whose entries carry the executing tasks, the scope
// free list, the aggregator's, and the transport endpoint's per-peer
// dispatched counts, the one word its dispatch goroutine writes per
// frame — and the recycled task scopes. The structs of other packages
// are walked by reflection, by field name; a struct that lost its
// bracket, or a renamed field, panics rather than shrinking the list.
func HotSpans(me *Rank) []HotSpan {
	out := bracketSpans("rank", me)
	out = append(out, bracketSpans("endpoint", me.ep)...)
	out = append(out, sliceSpan("finish/task stack", reflect.ValueOf(me.finish)),
		sliceSpan("scope free list", reflect.ValueOf(me.scopeFree)))
	if len(me.scopeFree) == 0 {
		panic("core: HotSpans before any task scope was recycled on this rank")
	}
	for _, fs := range me.scopeFree {
		lo := uintptr(unsafe.Pointer(fs))
		out = append(out, HotSpan{"task scope", lo, lo + unsafe.Sizeof(*fs)})
	}
	if me.agg != nil {
		out = append(out, bracketSpans("aggregator", me.agg)...)
		a := reflect.ValueOf(me.agg).Elem()
		out = append(out, sliceSpan("agg bufs", field(a, "bufs")),
			sliceSpan("task runs", reflect.ValueOf(me.taskRuns)))
		if ctls := field(a, "ctls"); ctls.Cap() > 0 { // adaptive jobs only
			out = append(out, sliceSpan("agg ctls", ctls))
		}
	}
	if _, proc := me.cd.(*gasnet.ProcConduit); !proc {
		cd := reflect.ValueOf(me.cd)
		out = append(out, bracketSpans("conduit", cd.Interface())...)
		if leg := cd.Elem().FieldByName("wire"); leg.IsValid() { // HierConduit: its wire leg
			cd = ptrTo(leg)
			out = append(out, bracketSpans("wire leg", cd.Interface())...)
		}
		tep := ptrTo(field(cd.Elem(), "tep"))
		out = append(out, bracketSpans("transport endpoint", tep.Interface())...)
		out = append(out, sliceSpan("transport dispatched counts", field(tep.Elem(), "dispatched")))
	}
	return out
}

// TaskScopes is how many task scopes rank me has taken so far: the
// core_task_scopes counter, read live.
func TaskScopes(me *Rank) int64 { return me.scopesTaken.Load() }

// bracketSpans returns the range between each pair of pad.Line fields
// of the struct p points to.
func bracketSpans(what string, p any) []HotSpan {
	v := reflect.ValueOf(p).Elem()
	var out []HotSpan
	open := -1
	for i := 0; i < v.NumField(); i++ {
		if v.Type().Field(i).Type != reflect.TypeOf(pad.Line{}) {
			continue
		}
		if open < 0 {
			open = i
			continue
		}
		out = append(out, HotSpan{what, v.Field(open).UnsafeAddr() + pad.LineBytes, v.Field(i).UnsafeAddr()})
		open = -1
	}
	if len(out) == 0 || open >= 0 {
		panic(fmt.Sprintf("core: %s (%s) has no complete pad.Line bracket", what, v.Type()))
	}
	return out
}

// sliceSpan is the whole backing array of slice s.
func sliceSpan(what string, s reflect.Value) HotSpan {
	if s.Cap() == 0 {
		panic("core: " + what + " has no backing array")
	}
	lo := s.Pointer()
	return HotSpan{what, lo, lo + uintptr(s.Cap())*s.Type().Elem().Size()}
}

// field is v.FieldByName that panics on a missing field.
func field(v reflect.Value, name string) reflect.Value {
	f := v.FieldByName(name)
	if !f.IsValid() {
		panic(fmt.Sprintf("core: %s has no field %q", v.Type(), name))
	}
	return f
}

// ptrTo rebuilds an interfaceable pointer from an unexported pointer
// field.
func ptrTo(f reflect.Value) reflect.Value {
	return reflect.NewAt(f.Type().Elem(), f.UnsafePointer())
}
