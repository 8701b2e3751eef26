package lincount

// BankLen reports how many compound terms the program's bank holds: the
// handle tests use to show that flat facts leave no trace there.
func (p *Program) BankLen() int { return p.bank.Len() }
