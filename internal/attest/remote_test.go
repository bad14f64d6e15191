package attest

import (
	"net"
	"strings"
	"testing"

	"minimaltcb/internal/evidence"
	"minimaltcb/internal/tpm"
)

// platformSide builds a responder backed by a real TPM that has late
// launched the given image.
func platformSide(t *testing.T, image []byte) (Responder, *tpm.TPM, *AIKCert, *PrivacyCA) {
	t.Helper()
	tb := newTPMWithBus(t, 21, 2)
	tb.bus.SetLocality(4)
	tb.chip.HashStart()
	tb.chip.HashData(image)
	tb.chip.HashEnd()
	tb.bus.SetLocality(0)

	ca := newCA(t)
	cert, err := ca.Certify("remote-platform", tb.chip.AIKPublic())
	if err != nil {
		t.Fatal(err)
	}
	log := Log{{PCR: 17, Description: "PAL", Measurement: evidence.Measure(image)}}
	respond := func(ch Challenge) (*Evidence, error) {
		q, err := tb.chip.QuoteCommand(tpm.Selection{17}, ch.Nonce)
		if err != nil {
			return nil, err
		}
		return &Evidence{Cert: cert, Quote: q, Log: log}, nil
	}
	return respond, tb.chip, cert, ca
}

func TestRemoteAttestationOverPipe(t *testing.T) {
	image := []byte("remote PAL image")
	respond, _, _, ca := platformSide(t, image)

	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeOne(server, respond) }()

	v := NewVerifier(ca.Public())
	v.Approve("remote-pal", evidence.Measure(image))
	name, err := v.ChallengeAndVerify(client, []byte("remote nonce 1"))
	if err != nil {
		t.Fatal(err)
	}
	if name != "remote-pal" {
		t.Fatalf("name %q", name)
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestRemoteAttestationOverTCP(t *testing.T) {
	image := []byte("tcp PAL image")
	respond, _, _, ca := platformSide(t, image)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback: %v", err)
	}
	defer l.Close()
	go Serve(l, respond)

	v := NewVerifier(ca.Public())
	v.Approve("tcp-pal", evidence.Measure(image))
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	name, err := v.ChallengeAndVerify(conn, []byte("tcp nonce"))
	if err != nil {
		t.Fatal(err)
	}
	if name != "tcp-pal" {
		t.Fatalf("name %q", name)
	}

	// Second connection with a new nonce also works.
	conn2, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ChallengeAndVerify(conn2, []byte("tcp nonce 2")); err != nil {
		t.Fatal(err)
	}
}

func TestRemoteVerifierRejectsUnapprovedPAL(t *testing.T) {
	image := []byte("unknown PAL")
	respond, _, _, ca := platformSide(t, image)
	client, server := net.Pipe()
	go ServeOne(server, respond)

	v := NewVerifier(ca.Public()) // nothing approved
	if _, err := v.ChallengeAndVerify(client, []byte("n")); err == nil {
		t.Fatal("unapproved PAL verified remotely")
	}
}

func TestRemoteVerifierRejectsWrongCA(t *testing.T) {
	image := []byte("pal")
	respond, _, _, _ := platformSide(t, image)
	client, server := net.Pipe()
	go ServeOne(server, respond)

	otherCA, err := NewPrivacyCA(77, 1024)
	if err != nil {
		t.Fatal(err)
	}
	v := NewVerifier(otherCA.Public())
	v.Approve("pal", evidence.Measure(image))
	if _, err := v.ChallengeAndVerify(client, []byte("n")); err == nil {
		t.Fatal("evidence verified against an untrusted CA")
	}
}

func TestServeOneRejectsEmptyNonce(t *testing.T) {
	respond, _, _, _ := platformSide(t, []byte("pal"))
	client, server := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- ServeOne(server, respond) }()
	if _, err := Request(client, Challenge{Nonce: nil}); err == nil {
		t.Fatal("empty-nonce exchange produced evidence")
	}
	if err := <-done; err == nil || !strings.Contains(err.Error(), "nonce") {
		t.Fatalf("server error: %v", err)
	}
}

func TestRemoteSePCRAttestation(t *testing.T) {
	tb := newTPMWithBus(t, 23, 2)
	ca := newCA(t)
	cert, _ := ca.Certify("rec-platform", tb.chip.AIKPublic())
	meas := evidence.Measure([]byte("rec pal"))
	h, err := tb.chip.AllocateSePCR(0, meas)
	if err != nil {
		t.Fatal(err)
	}
	tb.chip.ReleaseSePCR(h, 0)
	log := Log{{PCR: -1, Description: "PAL", Measurement: meas}}
	respond := func(ch Challenge) (*Evidence, error) {
		reqs := []tpm.BatchRequest{{Handle: ch.Handles[0], Nonce: ch.JobNonces[0]}}
		q, err := tb.chip.QuoteSePCRBatch(reqs, ch.Nonce, 0)
		if err != nil {
			return nil, err
		}
		return &Evidence{Cert: cert, Batch: q, Logs: []Log{log}}, nil
	}

	// One register is challenged as a batch of one.
	client, server := net.Pipe()
	go ServeOne(server, respond)
	v := NewVerifier(ca.Public())
	v.Approve("rec-pal", meas)
	names, err := v.ChallengeAndVerifyBatch(client, nil, []byte("sepcr nonce"),
		[]int{h}, [][]byte{[]byte("sepcr job nonce")})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "rec-pal" {
		t.Fatalf("names %q", names)
	}
}
