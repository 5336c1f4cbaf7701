package mem

// Kernel microbenchmark of the sized access path the functional simulator
// calls per load and store. One op is one 8-byte store plus one 8-byte
// load, at addresses striding through a 16-page working set so every
// access is a TLB hit after warm-up. Wrapped into BENCH_kernel.json by
// cmd/kernelbench.

import "testing"

var memSink uint64

func BenchmarkKernelMemReadWrite(b *testing.B) {
	const base, pages = 0x0100_0000, 16
	m := New()
	for p := uint64(0); p < pages; p++ {
		m.Write64(base+p*PageSize, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		// 520 = one cache line plus a word: walks lines and pages alike.
		addr := base + uint64(i)*520&(pages*PageSize-1)&^7
		m.Write64(addr, uint64(i))
		sum += m.Read64(addr ^ 8)
	}
	memSink = sum
}
