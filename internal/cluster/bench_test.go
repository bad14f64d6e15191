package cluster

import (
	"bytes"
	"testing"
	"time"

	"minimaltcb/internal/palsvc"
)

// echoSource writes back up to 32 bytes of its input.
const echoSource = `
	ldi r0, buf
	ldi r1, 32
	svc 7
	mov r1, r0
	ldi r0, buf
	svc 6
	ldi r0, 0
	svc 0
buf:	.ascii "--------------------------------"
`

// BenchmarkRouter_NoAttestRun times one routed request over loopback: one
// client → Router → one palsvc backend, running a 32-byte NoAttest echo
// job per op. Without quote and verify, the op is four wire frames, the
// router hop and the backend's queue — the path the noattest-routed
// workload exercises. The prober is slowed to once a minute so its health
// and stats round trips stay out of the timed loop.
func BenchmarkRouter_NoAttestRun(b *testing.B) {
	_, kl := startBackend(b, palsvc.Config{})
	r := newTestRouter(b, []string{kl.Addr().String()}, func(c *Config) { c.ProbeInterval = time.Minute })
	cl, err := palsvc.Dial(serveRouter(b, r), 10*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	req := &palsvc.WireRequest{Name: "echo", Source: echoSource, Input: bytes.Repeat([]byte{'x'}, 32), NoAttest: true}
	run := func() {
		resp, err := cl.Run(req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.OK || !bytes.Equal(resp.Output, req.Input) {
			b.Fatalf("echo answered %+v", resp)
		}
	}
	run() // compile and cache the image before timing
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
}
