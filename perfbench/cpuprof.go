package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// cpuGroups are the packages a CPU profile's samples are attributed to,
// by the package of each sample's leaf frame.
var cpuGroups = []string{"core", "dsp", "channel", "msk", "dqpsk", "sim", "experiments", "serve", "stats", "math", "runtime", "encoding_json", "net_http"}

// cpuGroup maps a function's package path to its group ("" = other).
func cpuGroup(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		first, _, _ := strings.Cut(rest, "/")
		for _, g := range cpuGroups {
			if g == first {
				return g
			}
		}
		return ""
	}
	switch {
	case pkg == "math" || strings.HasPrefix(pkg, "math/"):
		return "math"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case pkg == "encoding/json":
		return "encoding_json"
	case pkg == "net/http" || strings.HasPrefix(pkg, "net/http/"):
		return "net_http"
	}
	return ""
}

// funcPackage extracts the package path from a Go symbol name such as
// "repro/internal/core.(*Decoder).findHead" or "math.archExp".
func funcPackage(name string) string {
	slash := strings.LastIndex(name, "/")
	dot := strings.Index(name[slash+1:], ".")
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// cpuShares reads a CPU profile written by runtime/pprof and returns the
// share of CPU time whose leaf frame lies in each group.
func cpuShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(data)
	if err != nil {
		return nil, err
	}
	byGroup := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		total += v
		fn := p.leafFunction(s.locs[0])
		byGroup[cpuGroup(funcPackage(fn))] += v
	}
	out := map[string]float64{}
	for _, g := range cpuGroups {
		if total > 0 {
			out[g] = byGroup[g] / total
		} else {
			out[g] = 0
		}
	}
	return out, nil
}

// profile holds the parts of profile.proto the attribution needs.
type profile struct {
	samples   []profSample
	locations map[uint64]uint64 // location id → leaf (innermost) function id
	functions map[uint64]int64  // function id → name string index
	strings   []string
}

type profSample struct {
	locs   []uint64
	values []int64
}

func (p *profile) leafFunction(loc uint64) string {
	fn, ok := p.locations[loc]
	if !ok {
		return ""
	}
	idx, ok := p.functions[fn]
	if !ok || idx < 0 || int(idx) >= len(p.strings) {
		return ""
	}
	return p.strings[idx]
}

var errProto = errors.New("cpu profile: malformed protobuf")

// protoFields walks the fields of one protobuf message.
func protoFields(b []byte, fn func(field int, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(field, wire, v, nil); err != nil {
				return err
			}
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
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(field, wire, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return fmt.Errorf("cpu profile: wire type %d", wire)
		}
	}
	return nil
}

// varints appends a repeated integer field, packed or not.
func varints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return dst, errProto
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locations: map[uint64]uint64{}, functions: map[uint64]int64{}}
	err := protoFields(b, func(field, wire int, v uint64, data []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			err := protoFields(data, func(f, w int, v uint64, d []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = varints(s.locs, w, v, d)
				case 2:
					var vals []uint64
					vals, err = varints(nil, w, v, d)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id, leaf uint64
			haveLeaf := false
			err := protoFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line; the first is the innermost inlined frame
					if haveLeaf {
						return nil
					}
					haveLeaf = true
					return protoFields(d, func(f, w int, v uint64, _ []byte) error {
						if f == 1 {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = leaf
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(data, func(f, w int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string table
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	return p, err
}
