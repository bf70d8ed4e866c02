package cluster

// SeedPlusPlus exposes k-means++ seeding to the external tests, which
// check it on the synthetic vulnerability corpus: the feeds package that
// generates it imports this one, so only an external test can import it.
var SeedPlusPlus = seedPlusPlus
