package main

import (
	"bytes"
	"fmt"
	"time"

	"minimaltcb/internal/attest"
	"minimaltcb/internal/core"
	"minimaltcb/internal/palsvc"
	"minimaltcb/internal/sim"
	"minimaltcb/internal/sksm"
	"minimaltcb/internal/tpm"
)

// replayStats is what the traced replay measured, one sample per arrival
// unless noted.
type replayStats struct {
	phase                                *phase
	models                               []*layerModel
	ping, front, direct, service, lookup sim.Sample
	compile                              sim.Sample // first sighting of each image only
	execute, quote, verify, release      sim.Sample
	reqBytes, respBytes                  int64
	retired                              int64
}

// replayer holds the connections and the local core.System the traced
// replay drives.
type replayer struct {
	s      *sut
	w      *workload
	rec    *recorder
	c      *checker
	front  *palsvc.Client
	direct []*palsvc.Client // one per backend
	sys    *core.System
	sess   *attest.Session
	sessID uint64
	pals   map[int]*core.PAL
	out    *replayStats
	seq    int
}

// replay sends the first n arrivals of st one at a time (stopping early once
// budget has passed) and, for each, times the layers from outside: the
// request through the router and straight to its primary backend;
// Service.Run on the in-process backend; the job replayed on a core.System of
// the same profile (compile, execute, quote, verify, release); and a ping.
// Attested workloads batch their quotes, so their jobs are replayed in pairs
// under one batch quote.
func replay(s *sut, st *stream, rec *recorder, c *checker, n int, budget time.Duration) (*replayStats, error) {
	w := s.w
	r := &replayer{s: s, w: w, rec: rec, c: c, pals: map[int]*core.PAL{},
		out: &replayStats{phase: &phase{Name: "replay"}}}
	defer r.close()
	var err error
	if r.front, err = dial(s.front); err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	for _, addr := range s.addrs {
		cl, err := dial(addr)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		r.direct = append(r.direct, cl)
	}
	if r.sys, err = core.NewSystem(w.backendConfig(0).Profile); err != nil {
		return nil, fmt.Errorf("replay system: %w", err)
	}
	group := 1
	if !w.noAttest {
		group = 2
		nonce := []byte("tcbbench-replay-session")
		grant, err := r.sys.Machine.TPM().OpenQuoteSession(nonce)
		if err != nil {
			return nil, fmt.Errorf("replay session: %w", err)
		}
		if r.sess, err = r.sys.Verifier.NewSession(r.sys.Cert, grant, nonce); err != nil {
			return nil, fmt.Errorf("replay session: %w", err)
		}
		r.sessID = grant.ID
	}
	start := time.Now()
	for i := 0; i+group <= n && time.Since(start) < budget; i += group {
		as := make([]*arrival, group)
		for k := range as {
			as[k] = st.at(i + k)
		}
		if err := r.arrivals(as); err != nil {
			return nil, err
		}
	}
	r.out.phase.Elapsed = time.Since(start)
	return r.out, nil
}

func (r *replayer) close() {
	if r.front != nil {
		_ = r.front.Close()
	}
	closeAll(r.direct)
}

// job is one arrival's progress through the replay.
type job struct {
	a                       *arrival
	req                     int64
	start                   time.Time
	ok                      bool
	f, d, svc, q, arb       time.Duration
	cmp, exe, quo, ver, rel time.Duration
	secb                    *sksm.SECB
	pal                     *core.PAL
	nonce                   []byte
}

// arrivals replays one group: wire and service calls and execution per
// job, one quote for the group, then verify, release and ping per job.
func (r *replayer) arrivals(as []*arrival) error {
	jobs := make([]*job, len(as))
	for k, a := range as {
		j := &job{a: a, req: r.rec.id(), start: time.Now()}
		jobs[k] = j
		if err := r.serve(j); err != nil {
			return err
		}
		if err := r.execute(j); err != nil {
			return err
		}
	}
	if err := r.quote(jobs); err != nil {
		return err
	}
	for _, j := range jobs {
		if err := r.finish(j); err != nil {
			return err
		}
	}
	return nil
}

// serve sends the arrival over the wire (through the router, and directly to
// its primary backend) and runs it on the in-process backend.
func (r *replayer) serve(j *job) error {
	a, o := j.a, r.out
	var resp *palsvc.WireResponse
	var err error
	j.f, err = r.rec.time(j.req, j.req, "client.run", func() (e error) {
		resp, e = r.front.Run(&a.req)
		return e
	})
	o.phase.record(r.c, a, resp, err, j.f, time.Now())
	if err != nil {
		return fmt.Errorf("replay arrival %d: %w", a.index, err)
	}
	j.ok = resp.OK
	o.front.Add(j.f)
	run := a.req
	run.Op = palsvc.OpRun
	o.reqBytes += frameBytes(&run)
	o.respBytes += frameBytes(resp)

	var place []string
	lk, _ := r.rec.time(j.req, j.req, "route.lookup", func() error {
		place = r.s.router.Placement(a.req.Source)
		return nil
	})
	o.lookup.Add(lk)
	backend := r.s.backendIndex(place[0])
	j.d, err = r.rec.time(j.req, j.req, "client.run.direct", func() (e error) {
		resp, e = r.direct[backend].Run(&a.req)
		return e
	})
	// A backend answers for itself: no Backend stamp to check.
	o.phase.record(&checker{attested: r.c.attested}, a, resp, err, j.d, time.Now())
	if err != nil {
		return fmt.Errorf("replay arrival %d direct: %w", a.index, err)
	}
	o.direct.Add(j.d)

	in := palsvc.Job{Name: a.req.Name, Source: a.req.Source, Input: a.req.Input,
		NoAttest: a.req.NoAttest, Tenant: a.req.Tenant}
	var res *palsvc.JobResult
	j.svc, err = r.rec.time(j.req, j.req, "service.run", func() (e error) {
		res, e = r.s.svcs[backend].Run(in)
		return e
	})
	if err != nil {
		return fmt.Errorf("replay arrival %d in-process: %w", a.index, err)
	}
	o.phase.Attempted++
	switch {
	case res.Err != nil:
		o.phase.Failed++
		o.phase.fail(res.Err.Error())
	case !bytes.Equal(res.Output, a.want), r.c.attested && res.VerifiedAs != a.req.Name:
		o.phase.CheckFailed++
		o.phase.fail(fmt.Sprintf("arrival %d in-process: output %x verified as %q, want %x from %q",
			a.index, res.Output, res.VerifiedAs, a.want, a.req.Name))
	default:
		o.phase.OK++
	}
	if res.Err == nil {
		j.q, j.arb = res.QueueWait, res.ArbWait
	}
	o.service.Add(j.svc)
	return nil
}

// execute compiles the image on first sighting and runs the job to its
// exit on the replay system in one slice, as the service runs a job without
// a deadline.
func (r *replayer) execute(j *job) error {
	a, o := j.a, r.out
	j.pal = r.pals[a.tenant]
	if j.pal == nil {
		var err error
		j.cmp, err = r.rec.time(j.req, j.req, "core.compile", func() (e error) {
			j.pal, e = core.CompilePAL(a.req.Name, a.req.Source)
			return e
		})
		if err != nil {
			return fmt.Errorf("replay compile: %w", err)
		}
		r.pals[a.tenant] = j.pal
		o.compile.Add(j.cmp)
	}
	c := r.sys.PALCore()
	retired := c.Retired
	var err error
	j.exe, err = r.rec.time(j.req, j.req, "sksm.execute", func() (e error) {
		if j.secb, e = r.sys.SKSM.NewSECB(j.pal.Image, 1, 0); e != nil {
			return e
		}
		j.secb.Input = a.req.Input
		return r.sys.SKSM.RunToCompletion(c, j.secb)
	})
	if err != nil {
		return fmt.Errorf("replay execute %d: %w", a.index, err)
	}
	if !bytes.Equal(j.secb.Output, a.want) {
		return fmt.Errorf("replay execute %d: output %x, want %x", a.index, j.secb.Output, a.want)
	}
	o.execute.Add(j.exe)
	o.retired += c.Retired - retired
	return nil
}

// quote attests the group's jobs with one QuoteBatchAfterExit, whose cost
// each job shares evenly, and verifies each job's inclusion over the
// session.
func (r *replayer) quote(jobs []*job) error {
	if r.w.noAttest {
		return nil
	}
	r.seq++
	for k, j := range jobs {
		j.nonce = []byte(fmt.Sprintf("tcbbench-replay-%d-%d", r.seq, k))
		r.sys.Verifier.Approve(j.a.req.Name, j.pal.Measurement())
	}
	secbs := make([]*sksm.SECB, len(jobs))
	nonces := make([][]byte, len(jobs))
	for k, j := range jobs {
		secbs[k], nonces[k] = j.secb, j.nonce
	}
	var q *tpm.BatchQuote
	batchNonce := []byte(fmt.Sprintf("tcbbench-batch-%d", r.seq))
	d, err := r.rec.time(jobs[0].req, jobs[0].req, "tpm.quote", func() (e error) {
		q, e = r.sys.SKSM.QuoteBatchAfterExit(secbs, nonces, batchNonce, r.sessID)
		return e
	})
	if err != nil {
		return fmt.Errorf("replay batch quote: %w", err)
	}
	for k, j := range jobs {
		j.quo = d / time.Duration(len(jobs))
		r.out.quote.Add(j.quo)
		if err := r.verify(j, func() (string, error) {
			return r.sess.VerifyBatchedQuote(q, k, j.log(), j.nonce)
		}); err != nil {
			return err
		}
	}
	return nil
}

// log is the measurement log the verifier replays for j's sePCR quote.
func (j *job) log() attest.Log {
	return attest.Log{{PCR: -1, Description: j.a.req.Name, Measurement: j.pal.Measurement()}}
}

// verify times one verification and checks the name it returns.
func (r *replayer) verify(j *job, f func() (string, error)) error {
	var name string
	var err error
	j.ver, err = r.rec.time(j.req, j.req, "attest.verify", func() (e error) {
		name, e = f()
		return e
	})
	if err != nil {
		return fmt.Errorf("replay verify %d: %w", j.a.index, err)
	}
	if name != j.a.req.Name {
		return fmt.Errorf("replay verify %d: verified as %q, want %q", j.a.index, name, j.a.req.Name)
	}
	r.out.verify.Add(j.ver)
	return nil
}

// finish releases the job's SECB (freeing its sePCR unquoted first when the
// workload skips attestation), pings the front end, closes the arrival's
// root span and lays its costs out as a layer model.
func (r *replayer) finish(j *job) error {
	o := r.out
	var err error
	j.rel, err = r.rec.time(j.req, j.req, "sksm.release", func() error {
		if r.w.noAttest {
			if err := r.sys.Machine.TPM().FreeSePCR(j.secb.SePCRHandle); err != nil {
				return err
			}
		}
		return r.sys.SKSM.Release(j.secb)
	})
	if err != nil {
		return fmt.Errorf("replay release %d: %w", j.a.index, err)
	}
	o.release.Add(j.rel)
	p, err := r.rec.time(j.req, j.req, "client.ping", r.front.Ping)
	if err != nil {
		return fmt.Errorf("replay ping: %w", err)
	}
	o.ping.Add(p)
	r.rec.record(j.req, j.req, 0, "request", j.start, time.Now())
	if j.ok {
		o.models = append(o.models, j.model(!r.w.noAttest))
	}
	return nil
}

// model nests the job's measured costs the way the layers nest: the front
// end's round trip contains the direct one (the difference is the router
// hop), which contains Service.Run (the difference is the wire), which
// contains the pipeline stages.
func (j *job) model(attested bool) *layerModel {
	stages := []*layerModel{{name: "queue", d: j.q}, {name: "arb", d: j.arb},
		{name: "compile", d: j.cmp}, {name: "execute", d: j.exe}}
	if attested {
		stages = append(stages, &layerModel{name: "quote", d: j.quo}, &layerModel{name: "verify", d: j.ver})
	}
	stages = append(stages, &layerModel{name: "release", d: j.rel})
	svc := &layerModel{name: "svc", d: j.svc, children: stages}
	wire := &layerModel{name: "wire", d: j.d, children: []*layerModel{svc}}
	return &layerModel{name: "route", d: j.f, children: []*layerModel{wire}}
}
