class A {
    int f(int n, int[] xs) {
        Runnable r = new Runnable() { public void run() { String n = ""; } };
        n += xs.length;
        return n;
    }

    int g(int n, int[] xs) {
        n += xs.length;
        return n;
    }
}
