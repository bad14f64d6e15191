package tpm

import (
	"crypto/rsa"
	"sync"

	"minimaltcb/internal/sim"
)

// Key generation is the one genuinely expensive computation in the software
// TPM: a 2048-bit RSA pair takes real CPU time. Experiments construct many
// platforms with the same seed, so generated pairs are cached per
// (seed, bits). The cache is also what keeps experiments deterministic:
// within one process the same seed always names the same SRK and AIK.
// Across processes it does not — rsa.GenerateKey consumes its randomness
// source unpredictably (randutil.MaybeReadByte), so the seeded stream
// alone does not fix the key pair.
var (
	keyCacheMu sync.Mutex
	keyCache   = map[keyCacheKey]keyPair{}
)

type keyCacheKey struct {
	seed uint64
	bits int
}

type keyPair struct {
	srk, aik *rsa.PrivateKey
}

func keysForSeed(seed uint64, bits int) (srk, aik *rsa.PrivateKey, err error) {
	keyCacheMu.Lock()
	defer keyCacheMu.Unlock()
	k := keyCacheKey{seed, bits}
	if pair, ok := keyCache[k]; ok {
		return pair.srk, pair.aik, nil
	}
	// Domain-separated seeded streams for the two keys.
	srk, err = rsa.GenerateKey(sim.NewRNG(seed^0x53524b00), bits)
	if err != nil {
		return nil, nil, err
	}
	aik, err = rsa.GenerateKey(sim.NewRNG(seed^0x41494b00), bits)
	if err != nil {
		return nil, nil, err
	}
	keyCache[k] = keyPair{srk, aik}
	return srk, aik, nil
}
