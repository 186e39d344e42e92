package enclave_test

import (
	"testing"

	"repro/internal/enclave"
	"repro/internal/sgx"
	"repro/internal/tcb"
	"repro/internal/workload"
)

// deliverKey plays the owner's half of the attested key exchange without
// the attesting (the enclave does not authenticate the owner; the owner
// authenticates the enclave): begin the exchange with initSel, seal key to
// the DH half the enclave emitted, install it with SelCtlOwnerKey.
func deliverKey(b *testing.B, rt *enclave.Runtime, initSel uint64, key tcb.Key) {
	b.Helper()
	res, err := rt.CtlCall(initSel, enclave.SharedReqOff)
	if err != nil {
		b.Fatal(err)
	}
	out, err := rt.ReadShared(enclave.SharedReqOff, res[0])
	if err != nil {
		b.Fatal(err)
	}
	var enclaveDH tcb.DHPublic
	copy(enclaveDH[:], out[enclave.ReportWireSize:])
	nonce := out[enclave.ReportWireSize+32:][:32]
	kp, err := tcb.NewDHKeyPair()
	if err != nil {
		b.Fatal(err)
	}
	shared, err := kp.Shared(enclaveDH, "provision")
	if err != nil {
		b.Fatal(err)
	}
	sealed, err := tcb.Seal(shared, key[:], append([]byte("kencrypt"), nonce...))
	if err != nil {
		b.Fatal(err)
	}
	pub := kp.Public()
	msg := append(pub[:], sealed...)
	if err := rt.WriteShared(enclave.SharedReqOff, msg); err != nil {
		b.Fatal(err)
	}
	if _, err := rt.CtlCall(enclave.SelCtlOwnerKey, enclave.SharedReqOff, uint64(len(msg))); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBuildKV8M times restore Step-1 of the 8 MiB KV enclave: ECREATE,
// EADD of ≈ 2 100 pages — all but a few of them zero, whose measurement
// hash is precomputed — and EINIT, on an unconstrained host.
func BenchmarkBuildKV8M(b *testing.B) {
	m, err := sgx.NewMachine(sgx.Config{Name: "bench", EPCFrames: 2 * 2200})
	if err != nil {
		b.Fatal(err)
	}
	host := enclave.NewBareHost(m)
	signer, err := tcb.NewSigningIdentity()
	if err != nil {
		b.Fatal(err)
	}
	app := workload.KVApp(8<<20, 1)
	ss := sgx.SignEnclave(signer, enclave.MeasureApp(app))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rt, err := enclave.BuildSigned(host, app, ss)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := rt.Destroy(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkCheckpointKV8M times the two in-enclave halves of moving the
// filled 8 MiB KV enclave — ctlDump (walk, hash, seal in one buffer, copy
// out) and ctlTgtRestore (copy in, open in place, verify, write back) — on
// an unconstrained host, so paging stays out of the number. Owner-keyed,
// because that key can be installed without a second machine; the dump and
// restore code is the migration path's.
func BenchmarkCheckpointKV8M(b *testing.B) {
	const kvBytes = 8 << 20
	m, err := sgx.NewMachine(sgx.Config{Name: "bench", EPCFrames: 3 * 2200})
	if err != nil {
		b.Fatal(err)
	}
	host := enclave.NewBareHost(m)
	signer, err := tcb.NewSigningIdentity()
	if err != nil {
		b.Fatal(err)
	}
	key, err := tcb.RandomKey()
	if err != nil {
		b.Fatal(err)
	}
	app := workload.KVApp(kvBytes, 1)
	src, err := enclave.Build(host, app, signer)
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = src.Destroy() }()
	deliverKey(b, src, enclave.SelCtlProvisionInit, key)
	if _, err := src.ECall(0, workload.KVFill, kvBytes); err != nil {
		b.Fatal(err)
	}
	dump := func(b *testing.B) []byte {
		if _, err := src.CtlCall(enclave.SelCtlMigrateBegin); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		res, err := src.CtlCall(enclave.SelCtlOwnerDump, enclave.SharedCkptOff)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		blob, err := src.ReadShared(enclave.SharedCkptOff, res[0])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := src.CtlCall(enclave.SelCtlSrcCancel); err != nil {
			b.Fatal(err)
		}
		return blob
	}

	b.Run("dump", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(kvBytes)
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			dump(b)
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(kvBytes)
		b.StopTimer()
		blob := dump(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			dst, err := enclave.Build(host, app, signer)
			if err != nil {
				b.Fatal(err)
			}
			deliverKey(b, dst, enclave.SelCtlTgtBegin, key)
			if err := dst.WriteShared(enclave.SharedCkptOff, blob); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			_, err = dst.CtlCall(enclave.SelCtlTgtRestore, enclave.SharedCkptOff, uint64(len(blob)), 1)
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if err := dst.Destroy(); err != nil {
				b.Fatal(err)
			}
		}
	})
}
