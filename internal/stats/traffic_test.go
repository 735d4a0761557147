package stats

import "testing"

func TestTrafficCharge(t *testing.T) {
	tr := NewTraffic(2)
	if got := tr.Charge(0, 100); got != 100+DatagramOverhead {
		t.Fatalf("charged %d, want %d", got, 100+DatagramOverhead)
	}
	tr.Recv(1, 128)
	tr.Charge(0, 0)
	if tr.SentBytes[0] != 156 || tr.SentMsgs[0] != 2 || tr.TotalBytes != 156 || tr.RecvBytes[1] != 128 {
		t.Fatalf("ledger %+v", tr)
	}
	if avg := tr.AvgSentBytes(); avg != 78 {
		t.Errorf("AvgSentBytes = %v, want 78", avg)
	}
	snap := tr.Clone()
	tr.Reset()
	if tr.TotalBytes != 0 || tr.SentBytes[0] != 0 || tr.SentMsgs[0] != 0 || tr.RecvBytes[1] != 0 {
		t.Errorf("reset incomplete: %+v", tr)
	}
	if snap.TotalBytes != 156 || snap.SentBytes[0] != 156 || snap.RecvBytes[1] != 128 {
		t.Errorf("clone shares memory with the ledger: %+v", snap)
	}
}
