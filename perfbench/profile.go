package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is decoded here with the standard library alone: gzip plus
// the handful of fields of the profile.proto message that self-time
// attribution needs (samples, locations, functions and the string table).

// Profile is a decoded CPU profile reduced to what layer attribution reads.
type Profile struct {
	// Samples holds each sample's stack as function names, innermost first
	// (inlined frames expanded), with its CPU nanoseconds.
	Samples []ProfileSample
}

// ProfileSample is one stack and the CPU time charged to it.
type ProfileSample struct {
	Stack []string
	CPUNs int64
}

// unclaimedLayer receives samples with neither a runtime leaf nor a repro/
// frame anywhere on the stack: the benchmark harness itself, standard-library
// work it calls directly, and the profiler's own writer.
const unclaimedLayer = "unclaimed"

// ownerLayer names the layer a sample's self time is charged to. A stack
// whose innermost frame is Go runtime code (GC, allocation, map operations,
// scheduling) goes to "runtime". Otherwise the innermost frame in a repro/...
// package claims it, named by the package's last path element (netsim, sim,
// core, ...): standard-library helpers a layer calls, such as sort or
// encoding/json, count as that layer's own time.
func ownerLayer(stack []string) string {
	if len(stack) > 0 && isRuntimePkg(funcPackage(stack[0])) {
		return "runtime"
	}
	for _, fn := range stack {
		pkg := funcPackage(fn)
		if strings.HasPrefix(pkg, "repro/") {
			return pkg[strings.LastIndexByte(pkg, '/')+1:]
		}
	}
	return unclaimedLayer
}

// funcPackage extracts the import path from a symbol name such as
// "repro/internal/netsim.(*Fabric).rerateTouched" or "runtime.mallocgc".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

func isRuntimePkg(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/internal/") || strings.HasPrefix(pkg, "internal/runtime/")
}

// LayerShares charges every sample's CPU time to its owner layer and returns
// each layer's share of the total, and the total sample count.
func (p *Profile) LayerShares() (map[string]float64, int) {
	ns := map[string]int64{}
	var total int64
	for _, s := range p.Samples {
		ns[ownerLayer(s.Stack)] += s.CPUNs
		total += s.CPUNs
	}
	out := make(map[string]float64, len(ns))
	for layer, v := range ns {
		if total > 0 {
			out[layer] = float64(v) / float64(total)
		}
	}
	return out, len(p.Samples)
}

// ParseProfile decodes a gzip-compressed profile.proto message as written by
// runtime/pprof.
func ParseProfile(gz []byte) (*Profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples     []sample
		sampleTypes [][2]int64 // (type, unit) string indexes
		locLines    = map[uint64][]uint64{}
		funcName    = map[uint64]int64{}
		strs        []string
	)
	err = walkFields(raw, func(num int, wt int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var st [2]int64
			err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					st[n-1] = int64(v)
				}
				return nil
			})
			sampleTypes = append(sampleTypes, st)
			return err
		case 2: // sample
			var s sample
			err := walkFields(b, func(n, wt int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(wt, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return appendPacked(wt, v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walkFields(b, func(n, _ int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return walkFields(b, func(n, _ int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walkFields(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	cpuIdx := len(sampleTypes) - 1
	for i, st := range sampleTypes {
		if st[0] >= 0 && st[0] < int64(len(strs)) && strs[st[0]] == "cpu" {
			cpuIdx = i
		}
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	p := &Profile{}
	for _, s := range samples {
		if cpuIdx < 0 || cpuIdx >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locLines[loc] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		p.Samples = append(p.Samples, ProfileSample{Stack: stack, CPUNs: s.values[cpuIdx]})
	}
	return p, nil
}

// walkFields calls fn for each field of a protobuf message: the field
// number, wire type, and either the varint/fixed value or the
// length-delimited bytes.
func walkFields(b []byte, fn func(num, wireType int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wt)
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked handles a repeated integer field in either encoding: one
// varint per field, or a packed run of varints in a length-delimited field.
func appendPacked(wireType int, v uint64, b []byte, add func(uint64)) error {
	if wireType != 2 {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		add(x)
		b = b[n:]
	}
	return nil
}
