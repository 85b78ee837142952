package optsync

// Watch returns a channel that receives values of v as sequenced updates
// apply on this node. Delivery coalesces: if the consumer lags, it skips
// to the latest value rather than buffering history (eagersharing keeps
// local copies current; readers who need every transition should version
// their data or use a Published block). Call cancel to release the watch;
// the channel closes afterwards.
func (h *Handle) Watch(v *Var) (values <-chan int64, cancel func(), err error) {
	ch := make(chan int64, 1)
	unregister, err := h.node.OnVarChange(v.g.id, v.id, func(val int64) {
		// Coalesce: drop the stale value if the consumer hasn't taken it.
		select {
		case ch <- val:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- val:
			default:
			}
		}
	})
	if err != nil {
		return nil, nil, err
	}
	done := make(chan struct{})
	cancel = func() {
		select {
		case <-done:
			return // already cancelled
		default:
		}
		close(done)
		unregister()
		close(ch)
	}
	return ch, cancel, nil
}
