package palsvc

import (
	"errors"
	"testing"
	"time"

	"minimaltcb/internal/platform"
)

// testProfile is the recommended HP dc5750 with a small RSA modulus so CA
// and AIK generation stay fast under -race.
func testProfile(sePCRs int) platform.Profile {
	p := platform.Recommended(platform.HPdc5750(), sePCRs)
	p.KeyBits = 1024
	p.Seed = 42
	return p
}

func newTestService(t *testing.T, cfg Config) *Service {
	t.Helper()
	if cfg.Profile.Name == "" {
		cfg.Profile = testProfile(4)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

const helloSource = `
	ldi r0, msg
	ldi r1, 5
	svc 6
	ldi r0, 0
	svc 0
msg:	.ascii "hello"
`

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

// slowSource busy-loops for 2<<16 = 131072 iterations — a few milliseconds
// of wall-clock simulation, long enough to hold its sePCR while other jobs
// contend.
const slowSource = `
	ldi r0, 0
	ldi r1, 0
	lui r1, 2
loop:	addi r0, 1
	cmp r0, r1
	jnz loop
	ldi r0, 0
	svc 0
`

func TestRunEndToEnd(t *testing.T) {
	s := newTestService(t, Config{})
	res, err := s.Run(Job{Name: "hello", Source: helloSource})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if string(res.Output) != "hello" {
		t.Fatalf("output %q, want %q", res.Output, "hello")
	}
	if res.VerifiedAs != "hello" {
		t.Fatalf("verified as %q, want %q", res.VerifiedAs, "hello")
	}
	if res.Execute <= 0 {
		t.Fatal("no virtual execution time charged")
	}
	m := s.Metrics()
	if m.Submitted != 1 || m.Admitted != 1 || m.Completed != 1 {
		t.Fatalf("metrics %+v", m)
	}
	if m.MaxSePCROccupancy != 1 {
		t.Fatalf("max occupancy %d, want 1", m.MaxSePCROccupancy)
	}
}

func TestInputDelivered(t *testing.T) {
	s := newTestService(t, Config{})
	res, err := s.Run(Job{Name: "echo", Source: echoSource, Input: []byte("ping pong")})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if string(res.Output) != "ping pong" {
		t.Fatalf("echo output %q", res.Output)
	}
}

func TestImageCacheHits(t *testing.T) {
	s := newTestService(t, Config{})
	for i := 0; i < 5; i++ {
		if res, err := s.Run(Job{Name: "hello", Source: helloSource}); err != nil || res.Err != nil {
			t.Fatal(err, res)
		}
	}
	m := s.Metrics()
	if m.CacheMisses != 1 {
		t.Fatalf("cache misses %d, want 1", m.CacheMisses)
	}
	if m.CacheHits != 4 {
		t.Fatalf("cache hits %d, want 4", m.CacheHits)
	}
	// The first job opened the machine's quote session (one RSA verify
	// of the certificate chain); every batch since was admitted over the
	// session's HMAC channel, so the steady state is RSA-free.
	if got := s.machines[0].session.Batches(); got != m.QuoteBatches {
		t.Fatalf("session admitted %d batches, want all %d", got, m.QuoteBatches)
	}
}

func TestNoAttestSkipsVerification(t *testing.T) {
	s := newTestService(t, Config{})
	res, err := s.Run(Job{Name: "hello", Source: helloSource, NoAttest: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.VerifiedAs != "" {
		t.Fatalf("NoAttest job verified as %q", res.VerifiedAs)
	}
	if res.QuoteGen != 0 || res.Verify != 0 {
		t.Fatalf("NoAttest job charged quote/verify time: %v %v", res.QuoteGen, res.Verify)
	}
	// The register must still come back: a second job has capacity.
	if res, err := s.Run(Job{Name: "hello", Source: helloSource}); err != nil || res.Err != nil {
		t.Fatal(err, res)
	}
}

func TestBadSourceFailsJob(t *testing.T) {
	s := newTestService(t, Config{})
	res, err := s.Run(Job{Name: "bad", Source: "not a program"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Err == nil {
		t.Fatal("bad source ran")
	}
	if IsRetryable(res.Err) {
		t.Fatal("compile error marked retryable")
	}
	if m := s.Metrics(); m.Failed != 1 {
		t.Fatalf("failed count %d, want 1", m.Failed)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestService(t, Config{})
	if _, err := s.Submit(Job{}); err == nil {
		t.Fatal("empty job accepted")
	}
}

func TestQueueFullBackpressure(t *testing.T) {
	// One worker, queue of 2: the worker picks up the first slow job and
	// the queue absorbs two more; the fourth submission must bounce.
	s := newTestService(t, Config{Workers: 1, QueueDepth: 2})
	var tickets []*Ticket
	var rejected error
	for i := 0; i < 10; i++ {
		tk, err := s.Submit(Job{Name: "slow", Source: slowSource})
		if err != nil {
			rejected = err
			break
		}
		tickets = append(tickets, tk)
	}
	if rejected == nil {
		t.Fatal("bounded queue never pushed back")
	}
	if !errors.Is(rejected, ErrQueueFull) {
		t.Fatalf("rejection error %v, want ErrQueueFull", rejected)
	}
	if !IsRetryable(rejected) {
		t.Fatal("queue-full rejection not retryable")
	}
	for _, tk := range tickets {
		if res := tk.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if m := s.Metrics(); m.Rejected == 0 {
		t.Fatalf("metrics counted no rejections: %+v", m)
	}
}

func TestDeadlineExceededAccounted(t *testing.T) {
	// One worker stuck behind a slow job; the jobs queued after it carry
	// deadlines that expire while they wait.
	s := newTestService(t, Config{Workers: 1, QueueDepth: 16})
	slow, err := s.Submit(Job{Name: "slow", Source: slowSource})
	if err != nil {
		t.Fatal(err)
	}
	const K = 4
	var doomed []*Ticket
	for i := 0; i < K; i++ {
		tk, err := s.Submit(Job{
			Name:     "hello",
			Source:   helloSource,
			Deadline: time.Now().Add(time.Millisecond),
		})
		if err != nil {
			t.Fatal(err)
		}
		doomed = append(doomed, tk)
	}
	time.Sleep(5 * time.Millisecond) // let every deadline lapse in queue
	if res := slow.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	for i, tk := range doomed {
		res := tk.Wait()
		if !errors.Is(res.Err, ErrDeadlineExceeded) {
			t.Fatalf("job %d error %v, want ErrDeadlineExceeded", i, res.Err)
		}
	}
	if m := s.Metrics(); m.DeadlineExceeded != K {
		t.Fatalf("DeadlineExceeded = %d, want %d", m.DeadlineExceeded, K)
	}
}

func TestAdmitRejectWhenBankExhausted(t *testing.T) {
	// Bank of 1 and a reject policy: while the slow job holds the only
	// sePCR, a second job must fail fast with a retryable error.
	s := newTestService(t, Config{
		Profile:   testProfile(1),
		Workers:   2,
		Admission: AdmitReject,
	})
	slow, err := s.Submit(Job{Name: "slow", Source: slowSource})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	// Probe only once the slow job holds the register: the two workers
	// race for the bank, so an earlier probe can get the sePCR first and
	// the slow job itself is the one rejected.
	for s.Metrics().Admitted == 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	var sawReject bool
	for time.Now().Before(deadline) && !sawReject {
		res, err := s.Run(Job{Name: "hello", Source: helloSource})
		if err != nil {
			t.Fatal(err)
		}
		if res.Err == nil {
			// The slow job already finished — too late to collide.
			break
		}
		if !errors.Is(res.Err, ErrBankExhausted) {
			t.Fatalf("error %v, want ErrBankExhausted", res.Err)
		}
		if !IsRetryable(res.Err) {
			t.Fatal("bank-exhausted rejection not retryable")
		}
		sawReject = true
	}
	if res := slow.Wait(); res.Err != nil {
		t.Fatal(res.Err)
	}
	if !sawReject {
		t.Skip("slow PAL finished before any probe collided (very fast host)")
	}
	if m := s.Metrics(); m.Rejected == 0 {
		t.Fatalf("metrics counted no rejections: %+v", m)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	s := newTestService(t, Config{})
	if res, err := s.Run(Job{Name: "hello", Source: helloSource}); err != nil || res.Err != nil {
		t.Fatal(err, res)
	}
	s.Close()
	if _, err := s.Submit(Job{Name: "hello", Source: helloSource}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestCloseDrainsQueue(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, QueueDepth: 32})
	var tickets []*Ticket
	for i := 0; i < 8; i++ {
		tk, err := s.Submit(Job{Name: "hello", Source: helloSource})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	s.Close()
	for _, tk := range tickets {
		if res := tk.Wait(); res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if m := s.Metrics(); m.Completed != 8 {
		t.Fatalf("completed %d, want 8", m.Completed)
	}
}

func TestMultiMachineSpreadsLoad(t *testing.T) {
	s := newTestService(t, Config{
		Profile:  testProfile(2),
		Machines: 2,
		Workers:  4,
	})
	if s.Bank() != 4 {
		t.Fatalf("bank %d, want 4", s.Bank())
	}
	var tickets []*Ticket
	for i := 0; i < 12; i++ {
		tk, err := s.Submit(Job{Name: "slow", Source: slowSource})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	used := map[int]bool{}
	for _, tk := range tickets {
		res := tk.Wait()
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		used[res.Machine] = true
	}
	if len(used) != 2 {
		t.Fatalf("machines used %v, want both replicas", used)
	}
}

func TestTicketDoneChannel(t *testing.T) {
	s := newTestService(t, Config{})
	tk, err := s.Submit(Job{Name: "hello", Source: helloSource})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case res := <-tk.Done():
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("result never delivered")
	}
}
