package canon

import "math/bits"

// Structured hashing: model components fingerprint themselves by
// folding their fields into a 64-bit word hash instead of rendering a
// canonical string and hashing its bytes. Mix is one xxHash64 round and
// Finish its avalanche. A component folds its fields as a prefix-free
// word sequence (fixed layouts, variable-length parts preceded by their
// length), so equal field values give equal hashes and unequal ones
// collide only by 64-bit chance.

const (
	wordPrime1 = 0x9e3779b185ebca87
	wordPrime2 = 0xc2b2ae3d27d4eb4f
	wordPrime3 = 0x165667b19e3779f9
)

// WordSeed is the initial value of a structured hash.
const WordSeed uint64 = 0x27d4eb2f165667c5

// Mix folds word v into the structured hash h. For a fixed h it is a
// bijection in v, and for a fixed v a bijection in h.
func Mix(h, v uint64) uint64 {
	h += v * wordPrime2
	h = bits.RotateLeft64(h, 31)
	return h * wordPrime1
}

// MixString folds the length and the bytes of s, eight at a time.
func MixString(h uint64, s string) uint64 {
	h = Mix(h, uint64(len(s)))
	for ; len(s) >= 8; s = s[8:] {
		h = Mix(h, uint64(s[0])|uint64(s[1])<<8|uint64(s[2])<<16|uint64(s[3])<<24|
			uint64(s[4])<<32|uint64(s[5])<<40|uint64(s[6])<<48|uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := 0; i < len(s); i++ {
			w |= uint64(s[i]) << (8 * i)
		}
		h = Mix(h, w)
	}
	return h
}

// Finish avalanches a structured hash so every input bit reaches every
// output bit. Component hashes are finished before they are summed
// (order-independent tables and channels) or combined into a digest
// whose low bits pick seen-set shards.
func Finish(h uint64) uint64 {
	h ^= h >> 33
	h *= wordPrime2
	h ^= h >> 29
	h *= wordPrime3
	h ^= h >> 32
	return h
}
