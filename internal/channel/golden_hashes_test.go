package channel

// Hashes for TestGoldenSeedDatasets, captured from the pre-plan
// implementation (mutex-guarded caches, per-position second-order double
// scan) at the commit that introduced the compiled transmission plan.
// They certify the rewrite consumed exactly the same RNG draws.
const (
	goldenHashNaive       = "6fadfa170cb25a9b8474016c96c2597c"
	goldenHashCond        = "8367e35ad2c3f18f13e28d39bf0c361c"
	goldenHashSpatial     = "81296f7ea6e1f01c2a9d45e27dbb6051"
	goldenHashSecondOrder = "d8b45c7b9cd3a1e6cb10a7352ff452c7"
	goldenHashHighRate    = "3da32917f6c4a0b86871395c99a24620"
	goldenHashDNASim      = "13aa0eaa88aada7d047b22b355bddc40"
	// Pipeline cases, captured when the stage subsystem landed: the staged
	// hash pins the strand-stage chain (must equal the pre-rewrite chained
	// Transmit stream), the pool hash additionally pins the pool-stage
	// draw-order contract (coverage draw → pool draws → read draws).
	goldenHashPipeline     = "428becd77d5e7a6c647c192db63cf6fb"
	goldenHashPipelinePool = "396dadc08aabddc80baef43aaf821bd8"
	// GC-bias case, captured on the ref-aware coverage decorator before GC
	// thinning became a pool stage: the stage must reproduce its stream.
	goldenHashGCBias = "f0f8e0572756e835bed7a6e426040040"
	// Chimera case, captured when chimeras became a per-cluster read
	// channel.
	goldenHashChimera = "7e4231457886ff9c409684f252a81ff9"
	// Homopolymer and chimera-over-pipeline cases, captured while both
	// channels still transmitted through the Strand API, before they moved
	// onto the append kernel.
	goldenHashHomopolymer     = "cbab5de85dfdd1d54fff0df7986bf059"
	goldenHashChimeraPipeline = "5436c9202173548a0b6ab6d758e58c5e"
)
