package boom

// cacheModel is a set-associative cache with true-LRU replacement, used for
// the L1I, L1D and the unified L2 behind them. It tracks hit/miss behaviour
// on real addresses; latency and MSHR accounting live in the core.
type cacheModel struct {
	sets     int
	ways     int
	lineBits uint
	tags     []uint64 // sets × ways
	valid    []bool
	age      []uint64 // LRU stamps
	stamp    uint64
}

func newCacheModel(kib, ways, lineBytes int) *cacheModel {
	lines := kib * 1024 / lineBytes
	sets := lines / ways
	lb := uint(0)
	for 1<<lb < lineBytes {
		lb++
	}
	return &cacheModel{
		sets:     sets,
		ways:     ways,
		lineBits: lb,
		tags:     make([]uint64, sets*ways),
		valid:    make([]bool, sets*ways),
		age:      make([]uint64, sets*ways),
	}
}

// reset empties the cache. Ages and the stamp go too: victim selection
// compares the age of an invalid way 0.
func (c *cacheModel) reset() {
	clear(c.tags)
	clear(c.valid)
	clear(c.age)
	c.stamp = 0
}

// access looks up addr; on a miss it fills the line (LRU victim). Returns
// whether the access hit.
func (c *cacheModel) access(addr uint64) bool {
	line := addr >> c.lineBits
	set := int(line % uint64(c.sets))
	base := set * c.ways
	c.stamp++
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			c.age[base+w] = c.stamp
			return true
		}
	}
	victim := base
	for w := 1; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = base + w
			break
		}
		if c.age[base+w] < c.age[victim] {
			victim = base + w
		}
	}
	c.tags[victim] = line
	c.valid[victim] = true
	c.age[victim] = c.stamp
	return false
}

// probe is access without allocation (used for store write-probes where the
// timing model does not want fills to perturb the load path).
func (c *cacheModel) probe(addr uint64) bool {
	line := addr >> c.lineBits
	set := int(line % uint64(c.sets))
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			return true
		}
	}
	return false
}
