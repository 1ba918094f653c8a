int n = 0;
n += r.read();
