package bbv

import (
	"bufio"
	"fmt"
	"io"
	"sort"
)

// This file writes the frequency-vector file format of the original
// SimPoint 3.0 tool ("T:<block>:<count> :<block>:<count> ..." per interval,
// with 1-based block IDs), so profiles produced here can be fed to the
// reference SimPoint binary (boomflow -mode profile -out).

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
