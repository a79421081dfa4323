module netlock/bench

go 1.22

require netlock v0.0.0

replace netlock => ../
