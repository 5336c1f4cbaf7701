package boom

// cacheModel is a set-associative cache with true-LRU replacement, used for
// the L1I, L1D and the unified L2 behind them. It tracks hit/miss behaviour
// on real addresses; latency and MSHR accounting live in the core.
type cacheModel struct {
	setMask  uint64 // sets-1: Config.Validate requires a power-of-two set count
	ways     int
	lineBits uint
	tags     []uint64 // sets × ways
	valid    []bool
	age      []uint64 // LRU stamps
	stamp    uint64
}

// reset sizes the cache for kib KiB of lineBytes-byte lines in ways-way
// sets and empties it. Ages and the stamp go too: victim selection
// compares the age of an invalid way 0.
func (c *cacheModel) reset(kib, ways, lineBytes int) {
	lines := kib * 1024 / lineBytes
	lb := uint(0)
	for 1<<lb < lineBytes {
		lb++
	}
	c.setMask = uint64(lines/ways - 1)
	c.ways = ways
	c.lineBits = lb
	c.tags = sized(c.tags, lines)
	c.valid = sized(c.valid, lines)
	c.age = sized(c.age, lines)
	c.stamp = 0
}

// access looks up addr; on a miss it fills the line (LRU victim). Returns
// whether the access hit.
func (c *cacheModel) access(addr uint64) bool {
	line := addr >> c.lineBits
	base := int(line&c.setMask) * c.ways
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
	base := int(line&c.setMask) * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			return true
		}
	}
	return false
}
