package main

// Example pins the indirect-predictor comparison on the synthetic
// interpreter: a change to any line is a change to a simulated result.
func Example() {
	main()
	// Output:
	// btb-2048B: 59545/60233 mispredicted (98.86%)
	// pattern-2048B: 58335/60233 mispredicted (96.85%)
	// path(3x3)-2048B: 25140/60233 mispredicted (41.74%)
	// pathind[fixed(8)]-2048B: 4410/60233 mispredicted (7.32%)
	// profiled dispatch length: map[0x10034:5] (default 5)
	// pathind[profiled(1 branches,default 5)]-2048B: 3457/60233 mispredicted (5.74%)
}
