package mav

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file implements a text format for MAV streams deliberately shaped
// like SimPoint's .bb frequency-vector format (see internal/bbv/format.go):
// one line per interval, "M:<feature>:<count> " fields with 1-based
// feature indices, zero-count features omitted. The M marker keeps the
// two formats from being confused for one another.

// maxExactCount is the largest count accepted by ReadMAV. Vector stores
// counts as float64, which is exact only up to 2^53; larger counts would
// silently lose precision and break write→read round-trips.
const maxExactCount = int64(1) << 53

// WriteMAV writes vectors in the .mav format.
func WriteMAV(w io.Writer, vectors []Vector) error {
	bw := bufio.NewWriter(w)
	for _, v := range vectors {
		if _, err := bw.WriteString("M"); err != nil {
			return err
		}
		for f, c := range v {
			if c == 0 {
				continue
			}
			if _, err := fmt.Fprintf(bw, ":%d:%d ", f+1, int64(c)); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadMAV parses a .mav stream back into vectors. Malformed input
// returns an error; it never panics or silently drops information
// (duplicate feature indices, indices outside [1, NumFeatures], negative
// counts, and counts beyond float64's exact integer range are rejected
// rather than merged or rounded).
func ReadMAV(r io.Reader) ([]Vector, error) {
	var out []Vector
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "M") {
			return nil, fmt.Errorf("mav: line %d: missing M marker", lineNo)
		}
		var v Vector
		seen := [NumFeatures]bool{}
		for _, field := range strings.Fields(line[1:]) {
			parts := strings.Split(strings.TrimPrefix(field, ":"), ":")
			if len(parts) != 2 {
				return nil, fmt.Errorf("mav: line %d: bad field %q", lineNo, field)
			}
			feat, err := strconv.Atoi(parts[0])
			if err != nil || feat < 1 || feat > NumFeatures {
				return nil, fmt.Errorf("mav: line %d: bad feature index %q", lineNo, parts[0])
			}
			count, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil || count < 0 {
				return nil, fmt.Errorf("mav: line %d: bad count %q", lineNo, parts[1])
			}
			if count > maxExactCount {
				return nil, fmt.Errorf("mav: line %d: count %d exceeds float64's exact range", lineNo, count)
			}
			if seen[feat-1] {
				return nil, fmt.Errorf("mav: line %d: duplicate feature index %d", lineNo, feat)
			}
			seen[feat-1] = true
			v[feat-1] = float64(count)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
