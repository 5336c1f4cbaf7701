package fabric

// HeldCampaign lets the external test package see which campaign's spec
// and sessions a stopped worker holds.
func (w *Worker) HeldCampaign() string { return w.campID }
