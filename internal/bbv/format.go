package bbv

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// This file implements the frequency-vector file format of the original
// SimPoint 3.0 tool ("T:<block>:<count> :<block>:<count> ..." per interval,
// with 1-based block IDs), so profiles produced here can be fed to the
// reference SimPoint binary and vice versa.

// WriteBB writes vectors in SimPoint .bb format.
func WriteBB(w io.Writer, vectors []Vector) error {
	bw := bufio.NewWriter(w)
	for _, v := range vectors {
		blocks := make([]int, 0, len(v))
		for b := range v {
			blocks = append(blocks, b)
		}
		sort.Ints(blocks)
		if _, err := bw.WriteString("T"); err != nil {
			return err
		}
		for _, b := range blocks {
			if _, err := fmt.Fprintf(bw, ":%d:%d ", b+1, int64(v[b])); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// maxExactCount is the largest execution count accepted by ReadBB. Vector
// stores counts as float64, which is exact only up to 2^53; larger counts
// would silently lose precision and break write→read round-trips.
const maxExactCount = int64(1) << 53

// ReadBB parses a SimPoint .bb stream back into vectors. Malformed input
// returns an error; it never panics or silently drops information
// (duplicate block IDs in one interval and counts beyond float64's exact
// integer range are rejected rather than merged or rounded).
func ReadBB(r io.Reader) ([]Vector, error) {
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
		if !strings.HasPrefix(line, "T") {
			return nil, fmt.Errorf("bbv: line %d: missing T marker", lineNo)
		}
		v := Vector{}
		for _, field := range strings.Fields(line[1:]) {
			parts := strings.Split(strings.TrimPrefix(field, ":"), ":")
			if len(parts) != 2 {
				return nil, fmt.Errorf("bbv: line %d: bad field %q", lineNo, field)
			}
			block, err := strconv.Atoi(parts[0])
			if err != nil || block < 1 {
				return nil, fmt.Errorf("bbv: line %d: bad block id %q", lineNo, parts[0])
			}
			count, err := strconv.ParseInt(parts[1], 10, 64)
			if err != nil || count < 0 {
				return nil, fmt.Errorf("bbv: line %d: bad count %q", lineNo, parts[1])
			}
			if count > maxExactCount {
				return nil, fmt.Errorf("bbv: line %d: count %d exceeds float64's exact range", lineNo, count)
			}
			if _, dup := v[block-1]; dup {
				return nil, fmt.Errorf("bbv: line %d: duplicate block id %d", lineNo, block)
			}
			v[block-1] = float64(count)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
