package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"sync"
	"time"
)

// span is one traced interval: a setup phase, an epoch between kernel
// barriers, one Engine.Lookup, one experiment run or one pass. Times are
// nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the run writes them out at the end. A
// nil tracer records nothing, so untraced runs pay only a branch per
// call.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

// newTracer returns a tracer for a traced run and nil otherwise.
func newTracer(on bool) *tracer {
	if !on {
		return nil
	}
	return &tracer{t0: time.Now()}
}

// begin opens a span and returns its id (-1 when tracing is off).
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-measured interval.
func (t *tracer) add(name string, parent int, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeFile writes the run's environment and then one span per line to
// <dir>/<workload>-seed<seed>.jsonl.
func (t *tracer) writeFile(dir, workload string, seed int64, e env) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(e); err != nil {
		return "", err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// profiler records a CPU profile of the traced phase in memory.
type profiler struct{ buf bytes.Buffer }

func startProfile() (*profiler, error) {
	p := &profiler{}
	return p, pprof.StartCPUProfile(&p.buf)
}

// stop ends the profile and stores each package's flat share in r.
func (p *profiler) stop(r *report) error {
	pprof.StopCPUProfile()
	shares, err := cpuShares(p.buf.Bytes())
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for _, b := range cpuPackages {
		r.Layer["cpu."+b+"_share"] = shares[b]
	}
	return nil
}

// cpuShares turns a runtime/pprof CPU profile into the flat CPU share of
// each cpuPackages bucket: every sample is charged to the package of its
// innermost frame.
func cpuShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1])
		total += v
		name := ""
		if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
			if i := p.funcNames[fns[0]]; i >= 0 && i < int64(len(p.strings)) {
				name = p.strings[i]
			}
		}
		shares[cpuBucket(name)] += v
	}
	if total > 0 {
		for k := range shares {
			shares[k] /= total
		}
	}
	return shares, nil
}

// cpuBucket maps a fully qualified function name onto a cpuPackages
// bucket.
func cpuBucket(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "main":
		return "perfbench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime"):
		return "runtime"
	case strings.HasPrefix(pkg, "unap2p/internal/"):
		b := strings.ReplaceAll(strings.TrimPrefix(pkg, "unap2p/internal/"), "/", "_")
		for _, known := range cpuPackages {
			if b == known {
				return b
			}
		}
		if strings.HasPrefix(b, "overlay_") {
			return "overlay_other"
		}
		return "other_repo"
	case strings.HasPrefix(pkg, "unap2p/"):
		return "other_repo"
	}
	return "stdlib"
}

// profile is the part of a pprof profile.proto the share needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]int64    // function id → string table index
	strings   []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// parseProfile decodes the fields of profile.proto that cpuShares reads:
// Profile.sample (2), .location (4), .function (5), .string_table (6).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(field int, wire int, v uint64, data []byte) error {
		switch field {
		case 2:
			var s sample
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, d)
				case 2:
					for _, x := range appendVarints(nil, w, v, d) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(d, func(lf, lw int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}

// appendVarints appends a repeated varint field that is either packed
// (wire type 2) or a single element (wire type 0).
func appendVarints(out []uint64, wire int, v uint64, data []byte) []uint64 {
	if wire == 0 {
		return append(out, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		out = append(out, x)
		data = data[n:]
	}
	return out
}

var errProto = errors.New("malformed profile")

// eachField walks one protobuf message, handing every field to fn with
// its varint value (wire type 0) or its bytes (wire type 2).
func eachField(b []byte, fn func(field, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(field, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
