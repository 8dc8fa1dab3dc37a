package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// The per-package CPU split decodes the runtime's own CPU profile (a
// gzipped profile.proto) with a minimal protobuf reader, so the
// benchmark needs nothing outside the standard library.

// cpuBuckets are the per-layer CPU metrics, in report order. Each
// sample is charged to the first frame, walking from the leaf towards
// the root, that belongs to a bucketed package; runtime frames are
// charged to their caller, except garbage-collector work (cpu.gc).
var cpuBuckets = []string{
	"scalar", "vcl", "lane", "mem", "vm", "pipe", "core", "isa", "stats",
	"workloads", "search", "serve", "store", "fleet", "vltclient", "api",
	"net_http", "encoding_json", "crypto", "syscall", "gc", "other",
}

// profiler captures a CPU profile between start and stop.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns each bucket's share of samples in
// percent.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return bucketProfile(p.buf.Bytes())
}

// setCPUShares records the cpu.* per-layer metrics.
func (r *result) setCPUShares(shares map[string]float64) {
	for _, b := range cpuBuckets {
		r.set("cpu."+b, "%", shares[b])
	}
}

// bucketFor maps one function name to its bucket, or "" when the frame
// should be charged to its caller.
func bucketFor(fn string) string {
	pkg := funcPackage(fn)
	switch {
	case pkg == "vlt" || strings.HasPrefix(pkg, "vlt/"):
		name := strings.TrimPrefix(pkg, "vlt/internal/")
		for _, b := range cpuBuckets {
			if b == name {
				return b
			}
		}
		return "other"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "crypto" || strings.HasPrefix(pkg, "crypto/"):
		return "crypto"
	case pkg == "syscall" || pkg == "internal/poll" || pkg == "internal/runtime/syscall":
		return "syscall"
	}
	return ""
}

// isGC reports whether a frame is garbage-collector work.
func isGC(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.wbBuf", "runtime.markroot", "runtime.scanobject", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a Go symbol name such as
// "vlt/internal/vcl.(*VCL).Tick" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// bucketProfile decodes a gzipped CPU profile and returns each bucket's
// share of CPU time in percent.
func bucketProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location -> functions, innermost first
		funcName  = map[uint64]int64{}    // function -> string index
		strs      []string
		valueSlot = 1 // [samples, cpu-nanoseconds]
	)
	err = forFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			vals := []int64{}
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendUvarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendUvarints(nil, w, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > valueSlot {
				s.value = vals[valueSlot]
			} else if len(vals) > 0 {
				s.value = vals[0]
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			err := forFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return forFields(b, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			err := forFields(b, func(f, w int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	name := func(fn uint64) string {
		i := funcName[fn]
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	totals := map[string]int64{}
	var all int64
	for _, s := range samples {
		// Frames leaf first: each location lists inlined functions
		// innermost first.
		var frames []string
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				frames = append(frames, name(fn))
			}
		}
		bucket := "other"
		gc := false
		for _, f := range frames {
			if isGC(f) {
				gc = true
				break
			}
		}
		if gc {
			bucket = "gc"
		} else {
			for _, f := range frames {
				if b := bucketFor(f); b != "" {
					bucket = b
					break
				}
			}
		}
		totals[bucket] += s.value
		all += s.value
	}
	out := map[string]float64{}
	if all == 0 {
		return out, nil
	}
	for b, v := range totals {
		out[b] = 100 * float64(v) / float64(all)
	}
	return out, nil
}

// forFields walks the top-level fields of one protobuf message. For
// varint fields v holds the value; for length-delimited fields b holds
// the bytes.
func forFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			v = binary.LittleEndian.Uint64(msg)
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(msg))
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendUvarints appends a repeated varint field's values, whether
// encoded packed (wire type 2) or one per field (wire type 0).
func appendUvarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
